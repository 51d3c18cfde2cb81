package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestSupervisionEmpty(t *testing.T) {
	var nilSup *Supervision
	if !nilSup.Empty() {
		t.Error("nil Supervision should be empty")
	}
	if !(&Supervision{}).Empty() {
		t.Error("zero Supervision should be empty")
	}
	if (&Supervision{MustLink: [][2]int{{0, 1}}}).Empty() {
		t.Error("must-link pair should make Supervision non-empty")
	}
	if (&Supervision{SeedSets: map[int][]int{0: {3}}}).Empty() {
		t.Error("seed set should make Supervision non-empty")
	}
}

func TestSupervisionValidate(t *testing.T) {
	n, d, k := 10, 5, 3
	good := &Supervision{
		Knowledge:  dataset.NewKnowledge(),
		MustLink:   [][2]int{{0, 1}},
		CannotLink: [][2]int{{2, 3}},
		SeedSets:   map[int][]int{0: {4, 5}, 1: {6}},
	}
	good.Knowledge.LabelObject(7, 2)
	if err := good.Validate(n, d, k); err != nil {
		t.Fatalf("valid supervision rejected: %v", err)
	}
	cases := []*Supervision{
		{MustLink: [][2]int{{0, 10}}},             // object out of range
		{CannotLink: [][2]int{{-1, 2}}},           // negative object
		{MustLink: [][2]int{{3, 3}}},              // self pair
		{SeedSets: map[int][]int{3: {0}}},         // class out of range
		{SeedSets: map[int][]int{0: {10}}},        // seed object out of range
		{SeedSets: map[int][]int{0: {4}, 1: {4}}}, // object in two classes
	}
	for i, s := range cases {
		if err := s.Validate(n, d, k); err == nil {
			t.Errorf("case %d: invalid supervision accepted", i)
		}
	}
}

// TestSupervisionAsKnowledge: labels merge from all label-bearing forms, and
// must-links propagate an existing label across their transitive closure.
func TestSupervisionAsKnowledge(t *testing.T) {
	s := &Supervision{
		Knowledge:  dataset.NewKnowledge(),
		MustLink:   [][2]int{{0, 1}, {1, 2}, {8, 9}}, // 8–9 unlabeled: no label to spread
		CannotLink: [][2]int{{0, 5}},                 // dropped: no class identity
		SeedSets:   map[int][]int{1: {5, 6}},
	}
	s.Knowledge.LabelObject(0, 0)
	s.Knowledge.LabelDim(3, 1)
	kn, err := s.AsKnowledge()
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := map[int]int{0: 0, 1: 0, 2: 0, 5: 1, 6: 1}
	if !reflect.DeepEqual(kn.ObjectLabels, wantLabels) {
		t.Errorf("ObjectLabels = %v, want %v", kn.ObjectLabels, wantLabels)
	}
	if got := kn.DimsOfClass(1); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("DimsOfClass(1) = %v, want [3]", got)
	}
}

func TestSupervisionLabelConflicts(t *testing.T) {
	s := &Supervision{Knowledge: dataset.NewKnowledge(), SeedSets: map[int][]int{1: {0}}}
	s.Knowledge.LabelObject(0, 0)
	if _, err := s.AsKnowledge(); err == nil {
		t.Error("object labeled 0 and seeded into class 1 should conflict")
	}
	s = &Supervision{Knowledge: dataset.NewKnowledge(), MustLink: [][2]int{{0, 1}}}
	s.Knowledge.LabelObject(0, 0)
	s.Knowledge.LabelObject(1, 1)
	if _, err := s.AsKnowledge(); err == nil {
		t.Error("must-link component spanning two classes should conflict")
	}
}

// Validation and conflict errors name the same entry on every call — the
// smallest class, or the component with the smallest member — whatever
// order Go's map iteration yields.
func TestSupervisionErrorsNameSmallestEntry(t *testing.T) {
	n, d, k := 10, 4, 3
	outOfRange := &Supervision{SeedSets: map[int][]int{5: {0}, 4: {1}, 3: {2}}}
	seededTwice := &Supervision{SeedSets: map[int][]int{2: {0}, 1: {0}, 0: {0}}}
	spanning := &Supervision{Knowledge: dataset.NewKnowledge(), MustLink: [][2]int{{4, 5}, {2, 3}, {0, 1}}}
	for o := 0; o < 6; o++ {
		spanning.Knowledge.LabelObject(o, o%2)
	}
	for _, tc := range []struct {
		name string
		call func() error
		want string
	}{
		{"seed class", func() error { return outOfRange.Validate(n, d, k) }, "seed-set class 3 out of range"},
		{"seeded twice", func() error { return seededTwice.Validate(n, d, k) }, "object 0 seeded into classes 0 and 1"},
		{"seed conflict", func() error { _, err := seededTwice.AsKnowledge(); return err }, "object 0 labeled 0 but seeded into class 1"},
		{"component", func() error { _, err := spanning.AsKnowledge(); return err }, "component [0 1] spans classes 0 and 1"},
	} {
		first := tc.call()
		if first == nil || !strings.Contains(first.Error(), tc.want) {
			t.Fatalf("%s: error %v, want one naming %q", tc.name, first, tc.want)
		}
		for call := 1; call < 200; call++ {
			if err := tc.call(); err == nil || err.Error() != first.Error() {
				t.Fatalf("%s: call %d: error %v, first call %v", tc.name, call, err, first)
			}
		}
	}
}

// TestSupervisionAsConstraints: explicit pairs survive, labels and seeds
// derive same-class must-links and cross-class cannot-links, duplicates
// collapse, and the output order is the sorted pair order. Supervision with
// no knowledge, and nil supervision, give no pairs.
func TestSupervisionAsConstraints(t *testing.T) {
	s := &Supervision{
		Knowledge:  dataset.NewKnowledge(),
		MustLink:   [][2]int{{9, 8}},         // stored reversed; must come out ordered
		CannotLink: [][2]int{{7, 0}, {0, 7}}, // duplicate after ordering
		SeedSets:   map[int][]int{0: {1, 3}, 1: {5}},
	}
	s.Knowledge.LabelObject(3, 0) // duplicate of the seed label
	must, cannot, err := s.AsConstraints()
	if err != nil {
		t.Fatal(err)
	}
	wantMust := [][2]int{{1, 3}, {8, 9}}
	wantCannot := [][2]int{{0, 7}, {1, 5}, {3, 5}}
	if !reflect.DeepEqual(must, wantMust) {
		t.Errorf("must = %v, want %v", must, wantMust)
	}
	if !reflect.DeepEqual(cannot, wantCannot) {
		t.Errorf("cannot = %v, want %v", cannot, wantCannot)
	}
	for _, empty := range []*Supervision{{}, nil} {
		must, cannot, err := empty.AsConstraints()
		if err != nil || len(must) != 0 || len(cannot) != 0 {
			t.Errorf("%+v: AsConstraints = %v, %v, %v; want no pairs", empty, must, cannot, err)
		}
	}
}

func TestSupervisionAsSeedSets(t *testing.T) {
	s := &Supervision{
		Knowledge: dataset.NewKnowledge(),
		MustLink:  [][2]int{{4, 2}}, // 2 labeled below → 4 joins class 1
	}
	s.Knowledge.LabelObject(2, 1)
	s.Knowledge.LabelObject(0, 0)
	sets, err := s.AsSeedSets()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]int{0: {0}, 1: {2, 4}}
	if !reflect.DeepEqual(sets, want) {
		t.Errorf("AsSeedSets = %v, want %v", sets, want)
	}
}

func TestParseConstraints(t *testing.T) {
	in := "# header comment\n\nmust 0 3\ncannot 4 5\n  must 7   2\n"
	must, cannot, err := ParseConstraints(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if want := [][2]int{{0, 3}, {7, 2}}; !reflect.DeepEqual(must, want) {
		t.Errorf("must = %v, want %v", must, want)
	}
	if want := [][2]int{{4, 5}}; !reflect.DeepEqual(cannot, want) {
		t.Errorf("cannot = %v, want %v", cannot, want)
	}
	bad := []string{
		"must 1\n",     // too few fields
		"must 1 2 3\n", // too many fields
		"link 1 2\n",   // unknown kind
		"must 1 1\n",   // self pair
		"must -1 2\n",  // negative index
		"must +1 2\n",  // explicit sign
		"must 0x1 2\n", // hex spelling
		"must 1.5 2\n", // non-integer
		"must a 2\n",   // non-numeric
	}
	for _, in := range bad {
		if _, _, err := ParseConstraints(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestParseSeedSets(t *testing.T) {
	in := "# seeds\n0 5 3 5\n1 7\n0 9\n"
	sets, err := ParseSeedSets(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]int{0: {3, 5, 9}, 1: {7}}
	if !reflect.DeepEqual(sets, want) {
		t.Errorf("sets = %v, want %v", sets, want)
	}
	bad := []string{
		"0\n",        // class with no objects
		"0 1\n1 1\n", // object in two classes
		"x 1\n",      // non-numeric class
		"0 -2\n",     // negative object
	}
	for _, in := range bad {
		if _, err := ParseSeedSets(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}
