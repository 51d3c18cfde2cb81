package core

import (
	"sort"
	"sync"
)

// Trace lets callers observe the main loop: one IterationStats per
// iteration, plus the seed-group summary from initialization. It exists for
// debugging, teaching, and the convergence tests — production runs leave
// Options.Trace nil and pay nothing.

// IterationStats summarizes one iteration of the SSPC main loop.
type IterationStats struct {
	// Restart is the 0-based restart this iteration belongs to. Iterations
	// of concurrent restarts interleave; group by Restart to reconstruct
	// each restart's trajectory.
	Restart int
	// Iteration is 1-based within its restart.
	Iteration int
	// Score is the overall φ of this iteration's clustering.
	Score float64
	// BestScore is the best φ seen so far (after this iteration).
	BestScore float64
	// Improved reports whether this iteration set a new best.
	Improved bool
	// ClusterSizes has one entry per cluster; Outliers is the outlier-list
	// length.
	ClusterSizes []int
	Outliers     int
	// SelectedDims has the per-cluster selected-dimension counts.
	SelectedDims []int
	// BadCluster is the cluster whose representative was replaced at the
	// end of the iteration.
	BadCluster int
}

// SeedGroupInfo summarizes one seed group after initialization.
type SeedGroupInfo struct {
	// Class is the private group's class, or −1 for a public group.
	Class int
	Seeds int
	Dims  int
}

// Trace receives observer callbacks from Run. Either hook may be nil.
// Callbacks are serialized by an internal mutex, so one Trace can observe
// concurrent restarts without its own locking; use IterationStats.Restart
// to demultiplex them.
type Trace struct {
	// OnInit is called once per restart, after that restart's
	// initialization; restart tells concurrent restarts apart.
	OnInit func(restart int, groups []SeedGroupInfo)
	// OnIteration is called after every iteration of every restart. The
	// stats value is owned by the callback (slices are fresh copies).
	OnIteration func(IterationStats)
	// OnEarlyStop is called at most once per Run, when EarlyStop > 0 cut
	// the restart stream short: consumed restarts actually contributed to
	// the result, planned is Options.Restarts.
	OnEarlyStop func(consumed, planned int)

	mu sync.Mutex
}

// emitEarlyStop reports that the restart stream stopped after `consumed` of
// `planned` restarts because the objective plateaued.
func (t *Trace) emitEarlyStop(consumed, planned int) {
	if t == nil || t.OnEarlyStop == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.OnEarlyStop(consumed, planned)
}

// emitInit reports the created seed groups of one restart.
func (t *Trace) emitInit(restart int, private map[int]*seedGroup, public []*seedGroup) {
	if t == nil || t.OnInit == nil {
		return
	}
	var infos []SeedGroupInfo
	for class, g := range private {
		infos = append(infos, SeedGroupInfo{Class: class, Seeds: len(g.seeds), Dims: len(g.dims)})
	}
	for _, g := range public {
		infos = append(infos, SeedGroupInfo{Class: -1, Seeds: len(g.seeds), Dims: len(g.dims)})
	}
	// Private groups by class, then public ones in creation order: public
	// groups compare equal, so the sort must be stable.
	sort.SliceStable(infos, func(i, j int) bool { return less(infos[i], infos[j]) })
	t.mu.Lock()
	defer t.mu.Unlock()
	t.OnInit(restart, infos)
}

func less(a, b SeedGroupInfo) bool {
	ac, bc := a.Class, b.Class
	if ac == -1 {
		ac = int(^uint(0) >> 1) // public groups last
	}
	if bc == -1 {
		bc = int(^uint(0) >> 1)
	}
	return ac < bc
}

// emitIteration reports one iteration.
func (t *Trace) emitIteration(restart, iter int, score, best float64, improved bool,
	clusters []*state, assign []int, bad int) {
	if t == nil || t.OnIteration == nil {
		return
	}
	stats := IterationStats{
		Restart:      restart,
		Iteration:    iter,
		Score:        score,
		BestScore:    best,
		Improved:     improved,
		ClusterSizes: make([]int, len(clusters)),
		SelectedDims: make([]int, len(clusters)),
		BadCluster:   bad,
	}
	for i, st := range clusters {
		stats.ClusterSizes[i] = len(st.members)
		stats.SelectedDims[i] = len(st.dims)
	}
	for _, a := range assign {
		if a < 0 {
			stats.Outliers++
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.OnIteration(stats)
}
