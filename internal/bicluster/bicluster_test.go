package bicluster

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// plantBicluster builds an n×d uniform matrix with an additive-coherent
// submatrix planted at the given rows/cols: a_ij = base_i + effect_j, which
// has mean squared residue 0 plus the injected noise.
func plantBicluster(n, d int, rows, cols []int, noise float64, seed int64) *dataset.Dataset {
	rng := stats.NewRNG(seed)
	data := make([][]float64, n)
	for i := range data {
		data[i] = make([]float64, d)
		for j := range data[i] {
			data[i][j] = rng.Uniform(0, 100)
		}
	}
	rowBase := make(map[int]float64, len(rows))
	for _, i := range rows {
		rowBase[i] = rng.Uniform(20, 80)
	}
	colEffect := make(map[int]float64, len(cols))
	for _, j := range cols {
		colEffect[j] = rng.Uniform(-10, 10)
	}
	for _, i := range rows {
		for _, j := range cols {
			data[i][j] = rowBase[i] + colEffect[j] + rng.Norm(0, noise)
		}
	}
	ds, err := dataset.FromRows(data)
	if err != nil {
		panic(err)
	}
	return ds
}

func TestRunValidation(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{1, 2}, {3, 4}})
	if _, _, err := RunContext(context.Background(), nil, DefaultOptions(1, 10)); err == nil {
		t.Error("nil dataset should error")
	}
	if _, _, err := RunContext(context.Background(), ds, DefaultOptions(0, 10)); err == nil {
		t.Error("K=0 should error")
	}
	if _, _, err := RunContext(context.Background(), ds, DefaultOptions(1, -1)); err == nil {
		t.Error("negative delta should error")
	}
}

func TestResidueZeroForAdditiveMatrix(t *testing.T) {
	// A perfectly additive matrix has H = 0.
	rows := [][]float64{
		{1, 2, 3},
		{11, 12, 13},
		{21, 22, 23},
	}
	a := rows
	h, rowRes, colRes := residues(a, []int{0, 1, 2}, []int{0, 1, 2})
	if h > 1e-12 {
		t.Errorf("additive matrix H = %v, want 0", h)
	}
	for _, r := range append(rowRes, colRes...) {
		if r > 1e-12 {
			t.Errorf("residue %v, want 0", r)
		}
	}
}

func TestResidueDetectsIncoherence(t *testing.T) {
	a := [][]float64{
		{1, 2, 3},
		{11, 12, 13},
		{21, 22, 100}, // breaks additivity
	}
	h, _, colRes := residues(a, []int{0, 1, 2}, []int{0, 1, 2})
	if h < 1 {
		t.Errorf("incoherent matrix H = %v, want large", h)
	}
	if colRes[2] <= colRes[0] {
		t.Error("the broken column should carry the residue")
	}
}

func TestRecoversPlantedBicluster(t *testing.T) {
	rows := []int{3, 7, 11, 15, 19, 23, 27, 31, 35, 39}
	cols := []int{2, 5, 8, 11, 14, 17}
	ds := plantBicluster(60, 25, rows, cols, 0.2, 1)
	found, res, err := RunContext(context.Background(), ds, DefaultOptions(1, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 {
		t.Fatalf("found %d biclusters", len(found))
	}
	if err := res.Validate(ds.N(), ds.D()); err != nil {
		t.Fatalf("flattened result invalid: %v", err)
	}
	if res.K != 1 || res.ScoreHigherIsBetter {
		t.Errorf("flattened result K=%d higher=%v, want K=1 lower-is-better",
			res.K, res.ScoreHigherIsBetter)
	}
	if res.Score != found[0].H {
		t.Errorf("flattened score %v != mean H %v", res.Score, found[0].H)
	}
	b := found[0]
	if b.H > 2.0 {
		t.Errorf("bicluster H = %v exceeds delta", b.H)
	}
	rowSet := map[int]bool{}
	for _, i := range rows {
		rowSet[i] = true
	}
	colSet := map[int]bool{}
	for _, j := range cols {
		colSet[j] = true
	}
	rHit, cHit := 0, 0
	for _, i := range b.Rows {
		if rowSet[i] {
			rHit++
		}
	}
	for _, j := range b.Cols {
		if colSet[j] {
			cHit++
		}
	}
	if rHit < len(rows)*6/10 {
		t.Errorf("recovered %d of %d planted rows (got %v)", rHit, len(rows), b.Rows)
	}
	if cHit < len(cols)*6/10 {
		t.Errorf("recovered %d of %d planted cols (got %v)", cHit, len(cols), b.Cols)
	}
}

func TestMultipleBiclustersViaMasking(t *testing.T) {
	rowsA := []int{0, 1, 2, 3, 4, 5, 6, 7}
	colsA := []int{0, 1, 2, 3, 4}
	ds := plantBicluster(50, 20, rowsA, colsA, 0.2, 2)
	// Plant a second one manually on disjoint rows/cols.
	rng := stats.NewRNG(3)
	rowsB := []int{20, 21, 22, 23, 24, 25, 26}
	colsB := []int{10, 11, 12, 13}
	for _, i := range rowsB {
		base := rng.Uniform(20, 80)
		for _, j := range colsB {
			ds.Set(i, j, base+float64(j)+rng.Norm(0, 0.2))
		}
	}
	found, _, err := RunContext(context.Background(), ds, DefaultOptions(2, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 2 {
		t.Fatalf("found %d biclusters, want 2", len(found))
	}
	// The two discovered biclusters must be essentially disjoint in rows
	// (masking prevents rediscovery).
	inFirst := map[int]bool{}
	for _, i := range found[0].Rows {
		inFirst[i] = true
	}
	overlap := 0
	for _, i := range found[1].Rows {
		if inFirst[i] {
			overlap++
		}
	}
	if overlap > len(found[1].Rows)/2 {
		t.Errorf("second bicluster mostly overlaps the first (%d of %d rows)",
			overlap, len(found[1].Rows))
	}
}

func TestDeltaZeroStopsAtMinSize(t *testing.T) {
	// δ = 0 on noisy data: deletion runs to the floor without panicking.
	ds := plantBicluster(30, 10, nil, nil, 0, 4)
	found, _, err := RunContext(context.Background(), ds, DefaultOptions(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	b := found[0]
	if len(b.Rows) < 2 || len(b.Cols) < 2 {
		t.Errorf("bicluster below minimum size: %dx%d", len(b.Rows), len(b.Cols))
	}
}
