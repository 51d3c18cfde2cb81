package copkmeans

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/synth"
)

// TestConstraintsDigest pins COP-KMeans bit for bit across constraint sets.
// For three dataset shapes it draws two random sets of each kind (none, a
// few, many, and an infeasible one: a few pairs plus K+1 mutually
// cannot-linked objects) and fits each at two seeds and Workers 1 and 3.
// Each fit's assignments, score bits and iteration count go into one
// SHA-256; a failed fit contributes its error text instead.
func TestConstraintsDigest(t *testing.T) {
	const want = "f973a86a4189755f6843a3075fe8dc38dc96389cb5bd0ee662b7489130437f3e"
	h := sha256.New()
	shapes := []synth.Config{
		{N: 60, D: 4, K: 2, AvgDims: 4, Seed: 71},
		{N: 150, D: 8, K: 3, AvgDims: 5, Seed: 72},
		{N: 240, D: 20, K: 5, AvgDims: 6, Seed: 73},
	}
	fits, failed := 0, 0
	for _, cfg := range shapes {
		gt, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := cfg.N
		for draw := int64(0); draw < 2; draw++ {
			rng := rand.New(rand.NewSource(100*int64(n) + draw))
			few := randomConstraints(rng, n, 3, 3)
			infeasible := randomConstraints(rng, n, 3, 3)
			clique := rng.Perm(n)[:cfg.K+1]
			for a := range clique {
				for b := a + 1; b < len(clique); b++ {
					infeasible.CannotLink = append(infeasible.CannotLink, [2]int{clique[a], clique[b]})
				}
			}
			sets := []*Constraints{
				{},
				few,
				randomConstraints(rng, n, n/5, n/10),
				infeasible,
			}
			for u, cons := range sets {
				for _, seed := range []int64{1, 2} {
					for _, workers := range []int{1, 3} {
						opts := DefaultOptions(cfg.K)
						opts.Seed = seed
						opts.Workers = workers
						fits++
						res, err := RunContext(context.Background(), gt.Data, cons, opts)
						if err != nil {
							failed++
							fmt.Fprintf(h, "n=%d/draw=%d/set=%d: %v\n", n, draw, u, err)
							continue
						}
						hashInts(h, res.Assignments)
						var buf [8]byte
						binary.LittleEndian.PutUint64(buf[:], math.Float64bits(res.Score))
						h.Write(buf[:])
						hashInts(h, []int{res.Iterations})
					}
				}
			}
		}
	}
	t.Logf("%d fits, %d failed", fits, failed)
	if failed == 0 || failed == fits {
		t.Fatalf("%d of %d fits failed; the digest must cover both outcomes", failed, fits)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

// randomConstraints draws must and cannot pairs of distinct objects.
func randomConstraints(rng *rand.Rand, n, must, cannot int) *Constraints {
	pair := func() [2]int {
		a := rng.Intn(n)
		b := rng.Intn(n - 1)
		if b >= a {
			b++
		}
		return [2]int{a, b}
	}
	cons := &Constraints{}
	for i := 0; i < must; i++ {
		cons.MustLink = append(cons.MustLink, pair())
	}
	for i := 0; i < cannot; i++ {
		cons.CannotLink = append(cons.CannotLink, pair())
	}
	return cons
}

func hashInts(h io.Writer, v []int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
	h.Write(buf[:])
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
}
