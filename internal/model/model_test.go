package model

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/doc"
	"repro/internal/proclus"
	"repro/internal/synth"
)

// randomModel builds a structurally valid model with rng-driven shape and
// values, for the round-trip property test.
func randomModel(rng *rand.Rand) *Model {
	k := 1 + rng.Intn(5)
	d := 2 + rng.Intn(20)
	n := rng.Intn(50)
	m := &Model{
		Algo:                []string{"sspc", "proclus", "doc"}[rng.Intn(3)],
		Options:             "k=3 m=0.5",
		Seed:                rng.Int63(),
		K:                   k,
		D:                   d,
		N:                   n,
		DatasetHash:         "0123abcd",
		Score:               rng.NormFloat64() * 100,
		ScoreHigherIsBetter: rng.Intn(2) == 0,
		Iterations:          rng.Intn(100),
		Assignments:         make([]int, n),
		Clusters:            make([]cluster.FittedCluster, k),
	}
	for i := range m.Assignments {
		m.Assignments[i] = rng.Intn(k+1) - 1 // [-1, k)
	}
	for c := range m.Clusters {
		nd := rng.Intn(d + 1)
		dims := rng.Perm(d)[:nd]
		sort.Ints(dims)
		cl := cluster.FittedCluster{Dims: dims, Rep: make([]float64, nd), SHat: make([]float64, nd)}
		for t := range cl.Rep {
			// NormFloat64 can land on subnormals but never NaN/Inf; thresholds
			// must be strictly positive.
			cl.Rep[t] = rng.NormFloat64() * 1e3
			cl.SHat[t] = rng.Float64()*1e3 + 1e-9
		}
		m.Clusters[c] = cl
	}
	return m
}

func modelsEqual(t *testing.T, a, b *Model) {
	t.Helper()
	if a.Algo != b.Algo || a.Options != b.Options || a.Seed != b.Seed ||
		a.K != b.K || a.D != b.D || a.N != b.N || a.DatasetHash != b.DatasetHash ||
		a.Iterations != b.Iterations || a.ScoreHigherIsBetter != b.ScoreHigherIsBetter {
		t.Fatalf("scalar fields differ:\n%+v\n%+v", a, b)
	}
	if math.Float64bits(a.Score) != math.Float64bits(b.Score) {
		t.Fatalf("score bits differ: %x %x", math.Float64bits(a.Score), math.Float64bits(b.Score))
	}
	if len(a.Assignments) != len(b.Assignments) {
		t.Fatalf("assignment lengths differ")
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("assignment %d differs", i)
		}
	}
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatalf("cluster counts differ")
	}
	for c := range a.Clusters {
		ca, cb := a.Clusters[c], b.Clusters[c]
		if len(ca.Dims) != len(cb.Dims) {
			t.Fatalf("cluster %d dim counts differ", c)
		}
		for i := range ca.Dims {
			if ca.Dims[i] != cb.Dims[i] {
				t.Fatalf("cluster %d dim %d differs", c, i)
			}
			if math.Float64bits(ca.Rep[i]) != math.Float64bits(cb.Rep[i]) {
				t.Fatalf("cluster %d rep %d bits differ", c, i)
			}
			if math.Float64bits(ca.SHat[i]) != math.Float64bits(cb.SHat[i]) {
				t.Fatalf("cluster %d shat %d bits differ", c, i)
			}
		}
	}
}

// The round-trip property: Encode then Decode returns a bit-identical model
// (floats compared by their IEEE-754 bits) for a spread of random shapes.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		m := randomModel(rng)
		data, err := m.Encode()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		modelsEqual(t, m, back)
	}
}

// FuzzDecodeModel: Decode never panics, and a model it accepts passes
// Validate and comes back from Encode → Decode deep-equal under the same
// Key. Every input is also tried as a body behind a valid header, so
// mutations reach the JSON decoder instead of stopping at the CRC.
func FuzzDecodeModel(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 4; i++ {
		enc, err := randomModel(rng).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[headerSize:])
	}
	good, err := randomModel(rng).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good[:10]) // truncated header
	badCRC := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(badCRC[20:24], 0)
	f.Add(badCRC)
	f.Add(frame(append(good[headerSize:len(good):len(good)], '}')))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeRoundTrip(t, data)
		decodeRoundTrip(t, frame(data))
	})
}

func decodeRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	m, err := Decode(data)
	if err != nil {
		return
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Decode accepted a model that fails Validate: %v", err)
	}
	enc, err := m.Encode()
	if err != nil {
		t.Fatalf("decoded model does not encode: %v", err)
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-encoded model does not decode: %v", err)
	}
	if !reflect.DeepEqual(back, m) || back.Key() != m.Key() {
		t.Fatalf("round trip changed the model:\n%+v\n%+v", m, back)
	}
}

func TestSaveLoad(t *testing.T) {
	m := randomModel(rand.New(rand.NewSource(7)))
	path := filepath.Join(t.TempDir(), "m.sspcm")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	modelsEqual(t, m, back)
	if _, err := Load(filepath.Join(t.TempDir(), "missing.sspcm")); err == nil {
		t.Error("missing file should error")
	}
}

func TestDecodeRejections(t *testing.T) {
	m := randomModel(rand.New(rand.NewSource(9)))
	good, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(good); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"short header", func(b []byte) []byte { return b[:10] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"unknown version", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[8:12], 99)
			return b
		}},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-5] }},
		{"extended body", func(b []byte) []byte { return append(b, '}') }},
		{"flipped body byte", func(b []byte) []byte { b[headerSize+3] ^= 0x40; return b }},
		{"zeroed crc", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[20:24], 0)
			return b
		}},
		// A tail after the body's value, behind a header that counts it.
		{"trailing }", func(b []byte) []byte { return frame(append(b[headerSize:], '}')) }},
		{"trailing ]", func(b []byte) []byte { return frame(append(b[headerSize:], ']')) }},
		{"trailing ]]}", func(b []byte) []byte { return frame(append(b[headerSize:], " ]]}"...)) }},
		{"trailing x", func(b []byte) []byte { return frame(append(b[headerSize:], 'x')) }},
		{"trailing {}", func(b []byte) []byte { return frame(append(b[headerSize:], "{}"...)) }},
	}
	for _, tc := range cases {
		data := tc.corrupt(append([]byte(nil), good...))
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode should fail", tc.name)
		}
	}
	if _, err := Decode(frame(append(good[headerSize:len(good):len(good)], " \n\t\r"...))); err != nil {
		t.Errorf("trailing whitespace: %v", err)
	}
	// Unknown body fields are a forward-compat error, not silently dropped:
	// re-point the header at a hand-built body with an extra field.
	body := []byte(`{"algo":"sspc","options":"","seed":1,"k":1,"d":1,"n":0,"dataset_hash":"x",` +
		`"score":0,"score_higher_is_better":true,"iterations":1,"assignments":[],` +
		`"clusters":[{"dims":[],"rep":[],"shat":[]}],"extra_field":1}`)
	if _, err := Decode(frame(body)); err == nil {
		t.Error("unknown body field should fail decode")
	}
}

// frame puts a body behind a valid header: its length and CRC.
func frame(body []byte) []byte {
	data := make([]byte, headerSize+len(body))
	copy(data, magic)
	binary.BigEndian.PutUint32(data[8:12], Version)
	binary.BigEndian.PutUint64(data[12:20], uint64(len(body)))
	binary.BigEndian.PutUint32(data[20:24], crc32.ChecksumIEEE(body))
	copy(data[headerSize:], body)
	return data
}

func TestValidateRejections(t *testing.T) {
	base := func() *Model { return randomModel(rand.New(rand.NewSource(11))) }
	cases := []struct {
		name   string
		break_ func(*Model)
	}{
		{"empty algo", func(m *Model) { m.Algo = "" }},
		{"K mismatch", func(m *Model) { m.K++ }},
		{"assignment count", func(m *Model) { m.N++ }},
		{"assignment range", func(m *Model) {
			m.Assignments = []int{m.K}
			m.N = 1
		}},
		{"NaN score", func(m *Model) { m.Score = math.NaN() }},
		{"NaN threshold", func(m *Model) {
			m.Clusters[0] = cluster.FittedCluster{Dims: []int{0}, Rep: []float64{0}, SHat: []float64{math.NaN()}}
		}},
		{"zero threshold", func(m *Model) {
			m.Clusters[0] = cluster.FittedCluster{Dims: []int{0}, Rep: []float64{0}, SHat: []float64{0}}
		}},
		{"NaN rep", func(m *Model) {
			m.Clusters[0] = cluster.FittedCluster{Dims: []int{0}, Rep: []float64{math.NaN()}, SHat: []float64{1}}
		}},
		{"dim out of range", func(m *Model) {
			m.Clusters[0] = cluster.FittedCluster{Dims: []int{m.D}, Rep: []float64{0}, SHat: []float64{1}}
		}},
		{"unsorted dims", func(m *Model) {
			if m.D < 2 {
				m.D = 2
			}
			m.Clusters[0] = cluster.FittedCluster{Dims: []int{1, 0}, Rep: []float64{0, 0}, SHat: []float64{1, 1}}
		}},
		{"ragged triple", func(m *Model) {
			m.Clusters[0] = cluster.FittedCluster{Dims: []int{0}, Rep: []float64{0, 1}, SHat: []float64{1}}
		}},
	}
	for _, tc := range cases {
		m := base()
		tc.break_(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", tc.name)
		}
		if _, err := m.Encode(); err == nil {
			t.Errorf("%s: Encode should refuse an invalid model", tc.name)
		}
	}
}

func TestFromResultRequiresFitted(t *testing.T) {
	res := &cluster.Result{K: 1, Assignments: []int{0}, Score: 1}
	if _, err := FromResult("harp", "", 0, "x", 2, res); err == nil {
		t.Error("result without Fitted should be rejected")
	}
	if _, err := FromResult("sspc", "", 0, "x", 2, nil); err == nil {
		t.Error("nil result should be rejected")
	}
}

func TestKeyDiscriminates(t *testing.T) {
	base := Key("h", "sspc", "k=3", 1)
	for name, other := range map[string]string{
		"dataset": Key("h2", "sspc", "k=3", 1),
		"algo":    Key("h", "proclus", "k=3", 1),
		"options": Key("h", "sspc", "k=4", 1),
		"seed":    Key("h", "sspc", "k=3", 2),
	} {
		if other == base {
			t.Errorf("key ignores %s", name)
		}
	}
	// Length-prefixing keeps part boundaries unambiguous.
	if Key("ab", "c", "", 0) == Key("a", "bc", "", 0) {
		t.Error("key is ambiguous across part boundaries")
	}
	if base != Key("h", "sspc", "k=3", 1) {
		t.Error("key is not deterministic")
	}
}

func TestDatasetHash(t *testing.T) {
	ds1, err := dataset.FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := dataset.FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	ds3, err := dataset.FromRows([][]float64{{1, 2}, {3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if DatasetHash(ds1) != DatasetHash(ds2) {
		t.Error("equal data should hash equal")
	}
	if DatasetHash(ds1) == DatasetHash(ds3) {
		t.Error("different data should hash differently")
	}
	ds4, err := dataset.FromRows([][]float64{{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if DatasetHash(ds1) == DatasetHash(ds4) {
		t.Error("different shape with equal values should hash differently")
	}
}

// servableFits fits one fixed synthetic dataset with each algorithm that
// emits a fitted snapshot (SSPC, PROCLUS, DOC, all at seed 5) and returns
// the dataset, the algorithm names and the results, index-aligned.
func servableFits(t *testing.T) (*dataset.Dataset, []string, []*cluster.Result) {
	t.Helper()
	gt, err := synth.Generate(synth.Config{
		N: 300, D: 20, K: 3, AvgDims: 8,
		LocalSDMinFrac: 0.01, LocalSDMaxFrac: 0.03, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := gt.Data
	ctx := context.Background()
	sspcOpts := core.DefaultOptions(3)
	sspcOpts.Seed = 5
	proclusOpts := proclus.DefaultOptions(3, 8)
	proclusOpts.Seed = 5
	docOpts := doc.DefaultOptions(3, 15)
	docOpts.Seed = 5
	algos := []string{"sspc", "proclus", "doc"}
	results := make([]*cluster.Result, len(algos))
	for i, run := range []func() (*cluster.Result, error){
		func() (*cluster.Result, error) { return core.RunContext(ctx, ds, sspcOpts) },
		func() (*cluster.Result, error) { return proclus.RunContext(ctx, ds, proclusOpts) },
		func() (*cluster.Result, error) { return doc.RunContext(ctx, ds, docOpts) },
	} {
		if results[i], err = run(); err != nil {
			t.Fatalf("%s: %v", algos[i], err)
		}
		if results[i].Fitted == nil {
			t.Fatalf("%s: no fitted snapshot", algos[i])
		}
	}
	return ds, algos, results
}

// The serve-path identity for every algorithm that emits a fitted snapshot:
// fit → FromResult → Encode → Decode → Assigner, then batch-score the
// training rows. For SSPC the answers must be byte-identical to the fit's
// own assignments; for PROCLUS and DOC (whose native assignment rule is not
// Step-3 scoring) they must be byte-identical to an in-process Assigner
// built from the same fitted snapshot.
func TestModelAssignEquivalence(t *testing.T) {
	ds, algos, results := servableFits(t)
	rows := make([]float64, 0, ds.N()*ds.D())
	for x := 0; x < ds.N(); x++ {
		rows = append(rows, ds.Row(x)...)
	}
	hash := DatasetHash(ds)
	for i, algo := range algos {
		res := results[i]
		m, err := FromResult(algo, "test-options", 5, hash, ds.D(), res)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		data, err := m.Encode()
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		a, err := back.Assigner()
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		got := make([]int, ds.N())
		if err := a.AssignBatch(rows, got); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		var want []int
		if algo == "sspc" {
			want = res.Assignments
		} else {
			inProc, err := core.NewAssigner(ds.D(), res.Fitted)
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			want = make([]int, ds.N())
			if err := inProc.AssignBatch(rows, want); err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
		}
		for x := range got {
			if got[x] != want[x] {
				t.Fatalf("%s: object %d decoded-model assign %d, want %d", algo, x, got[x], want[x])
			}
		}
	}
}

// TestEncodeDigest pins the wire bytes: one SHA-256 over Encode() of 200
// randomModel draws at a fixed seed, then of the SSPC, PROCLUS and DOC
// models of servableFits, then of a hand-built result whose empty triples
// encode as null. The digest was captured while this package still had a
// cluster type of its own, before the body's clusters became
// cluster.FittedCluster values; any change to a field name, field order,
// nil-versus-empty slice or float formatting moves it, and so does any
// change to the three fits.
func TestEncodeDigest(t *testing.T) {
	const want = "7483b1b104cd429924eedf8910388c0d8fcb2d010d50b9feba29495c6b47b15d"
	h := sha256.New()
	rng := rand.New(rand.NewSource(2026))
	for i := 0; i < 200; i++ {
		data, err := randomModel(rng).Encode()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	write := func(algo, hash string, d int, res *cluster.Result) {
		t.Helper()
		m, err := FromResult(algo, "test-options", 5, hash, d, res)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		data, err := m.Encode()
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		h.Write(data)
	}
	ds, algos, results := servableFits(t)
	for i, algo := range algos {
		write(algo, DatasetHash(ds), ds.D(), results[i])
	}
	write("doc", "0123abcd", 2, &cluster.Result{K: 3, Assignments: []int{0, 2, -1, 2}, Score: 1.25, Fitted: []cluster.FittedCluster{
		{},
		{Dims: []int{}, Rep: []float64{}, SHat: []float64{}},
		{Dims: []int{1}, Rep: []float64{-0.5}, SHat: []float64{3}},
	}})
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Encode digest %s, want %s", got, want)
	}
}

// A decoded model's Assigner keeps the serving hot path allocation-free.
func TestModelAssignerZeroAlloc(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 200, D: 20, K: 2, AvgDims: 6, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(2)
	opts.Seed = 3
	res, err := core.RunContext(context.Background(), gt.Data, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromResult("sspc", "", 3, DatasetHash(gt.Data), gt.Data.D(), res)
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Assigner()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]float64, 0, gt.Data.N()*gt.Data.D())
	for x := 0; x < gt.Data.N(); x++ {
		rows = append(rows, gt.Data.Row(x)...)
	}
	out := make([]int, gt.Data.N())
	if avg := testing.AllocsPerRun(20, func() {
		if err := a.AssignBatch(rows, out); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("decoded-model AssignBatch allocates %v per call, want 0", avg)
	}
}
