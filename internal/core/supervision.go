package core

// This file factors the three supervision styles the paper's §2 compares —
// labeled objects/dimensions (SSPC's Io and Iv), pairwise must/cannot-link
// constraints (COP-KMeans), and per-class seed sets (seeded k-means) — into
// one Supervision value that converts losslessly-where-possible into each
// algorithm's native input form. The conversions are pure functions of the
// Supervision value (all derived orderings are sorted), so a pipeline that
// builds one Supervision and feeds every algorithm stays deterministic.
//
// Conversions are deliberately asymmetric, mirroring the information content
// of each form (§2.2): labels and seed sets imply pairwise constraints
// (same class → must-link, different classes → cannot-link), and must-links
// propagate an existing label across their transitive closure, but a
// cannot-link pair alone carries no class identity and is therefore dropped
// when converting to labels or seed sets.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dataset"
)

// Supervision carries every supervision form the repository's algorithms
// accept. Any subset of the fields may be set; the As* conversions merge
// them into the requested native form.
type Supervision struct {
	// Knowledge is SSPC's native form: labeled objects (object → class) and
	// labeled dimensions (class → dimensions).
	Knowledge *dataset.Knowledge
	// MustLink and CannotLink are COP-KMeans's native form: instance-level
	// pairs that must (resp. must not) share a cluster.
	MustLink, CannotLink [][2]int
	// SeedSets is seeded k-means's native form: class → seed objects.
	SeedSets map[int][]int
}

// Empty reports whether no supervision of any form is present. A nil
// receiver is empty.
func (s *Supervision) Empty() bool {
	if s == nil {
		return true
	}
	return s.Knowledge.Empty() && len(s.MustLink) == 0 && len(s.CannotLink) == 0 && len(s.SeedSets) == 0
}

// Validate checks every form against the dataset shape: object indices in
// [0, n), dimension indices in [0, d), classes in [0, k), no self-pairs, and
// no object seeded into two classes. Seed-set classes are checked in
// ascending order and each set in its own order, so the error names the
// same entry on every call.
func (s *Supervision) Validate(n, d, k int) error {
	if s == nil {
		return nil
	}
	if err := s.Knowledge.Validate(n, d, k); err != nil {
		return err
	}
	for _, p := range s.MustLink {
		if err := validatePair(p, n, "must-link"); err != nil {
			return err
		}
	}
	for _, p := range s.CannotLink {
		if err := validatePair(p, n, "cannot-link"); err != nil {
			return err
		}
	}
	seededClass := map[int]int{}
	for _, c := range s.seedClasses() {
		if c < 0 || c >= k {
			return fmt.Errorf("supervision: seed-set class %d out of range [0,%d)", c, k)
		}
		for _, o := range s.SeedSets[c] {
			if o < 0 || o >= n {
				return fmt.Errorf("supervision: seed object %d out of range [0,%d)", o, n)
			}
			if prev, ok := seededClass[o]; ok && prev != c {
				return fmt.Errorf("supervision: object %d seeded into classes %d and %d", o, prev, c)
			}
			seededClass[o] = c
		}
	}
	return nil
}

// seedClasses returns the classes of s.SeedSets in ascending order.
func (s *Supervision) seedClasses() []int {
	classes := make([]int, 0, len(s.SeedSets))
	for c := range s.SeedSets {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	return classes
}

func validatePair(p [2]int, n int, kind string) error {
	if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
		return fmt.Errorf("supervision: %s pair %v out of range [0,%d)", kind, p, n)
	}
	if p[0] == p[1] {
		return fmt.Errorf("supervision: %s pair %v links an object to itself", kind, p)
	}
	return nil
}

// mergedLabels folds labeled objects and seed sets into one object → class
// map and propagates labels across must-link components (an unlabeled object
// must-linked to a labeled one adopts its class). Conflicting labels — the
// same object claimed by two classes, or a must-link component spanning two
// classes — are errors; cannot-links carry no class information and are
// ignored here. Seed sets are folded in ascending class order and components
// checked in ascending order of their smallest member, so a conflict error
// names the same entry on every call.
func (s *Supervision) mergedLabels() (map[int]int, error) {
	labels := map[int]int{}
	if s == nil {
		return labels, nil
	}
	if s.Knowledge != nil {
		for o, c := range s.Knowledge.ObjectLabels {
			labels[o] = c
		}
	}
	for _, c := range s.seedClasses() {
		for _, o := range s.SeedSets[c] {
			if prev, ok := labels[o]; ok && prev != c {
				return nil, fmt.Errorf("supervision: object %d labeled %d but seeded into class %d", o, prev, c)
			}
			labels[o] = c
		}
	}
	if len(s.MustLink) == 0 {
		return labels, nil
	}
	// Union-find over the objects mentioned by must-links only.
	parent := map[int]int{}
	var find func(int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p != x {
			parent[x] = find(p)
		}
		return parent[x]
	}
	for _, p := range s.MustLink {
		parent[find(p[0])] = find(p[1])
	}
	members := map[int][]int{}
	for x := range parent {
		members[find(x)] = append(members[find(x)], x)
	}
	comps := make([][]int, 0, len(members))
	for _, comp := range members {
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(a, b int) bool { return comps[a][0] < comps[b][0] })
	for _, comp := range comps {
		class, labeled := 0, false
		for _, o := range comp {
			c, ok := labels[o]
			if !ok {
				continue
			}
			if labeled && c != class {
				return nil, fmt.Errorf("supervision: must-link component %v spans classes %d and %d", comp, class, c)
			}
			class, labeled = c, true
		}
		if labeled {
			for _, o := range comp {
				labels[o] = class
			}
		}
	}
	return labels, nil
}

// AsKnowledge converts to SSPC's native form: the merged object labels
// (labeled objects, seed sets, and must-link propagation — see mergedLabels)
// plus the dimension labels carried verbatim. Cannot-links are dropped: they
// name no class. The receiver is never modified; the result is independent
// of it.
func (s *Supervision) AsKnowledge() (*dataset.Knowledge, error) {
	labels, err := s.mergedLabels()
	if err != nil {
		return nil, err
	}
	kn := dataset.NewKnowledge()
	for o, c := range labels {
		kn.LabelObject(o, c)
	}
	if s != nil && s.Knowledge != nil {
		for c, dims := range s.Knowledge.DimLabels {
			for _, j := range dims {
				kn.LabelDim(j, c)
			}
		}
	}
	return kn, nil
}

// AsConstraints converts to COP-KMeans's native form: the explicit pairs
// plus every pair derivable from the merged object labels (same class →
// must-link, different classes → cannot-link), deduplicated, each returned
// slice in ascending (lexicographic) pair order with the smaller index
// first.
func (s *Supervision) AsConstraints() (must, cannot [][2]int, err error) {
	labels, err := s.mergedLabels()
	if err != nil {
		return nil, nil, err
	}
	mustSet := map[[2]int]bool{}
	cannotSet := map[[2]int]bool{}
	if s != nil {
		for _, p := range s.MustLink {
			mustSet[orderPair(p)] = true
		}
		for _, p := range s.CannotLink {
			cannotSet[orderPair(p)] = true
		}
	}
	objs := make([]int, 0, len(labels))
	for o := range labels {
		objs = append(objs, o)
	}
	sort.Ints(objs)
	for i := 0; i < len(objs); i++ {
		for j := i + 1; j < len(objs); j++ {
			p := [2]int{objs[i], objs[j]}
			if labels[objs[i]] == labels[objs[j]] {
				mustSet[p] = true
			} else {
				cannotSet[p] = true
			}
		}
	}
	return sortedPairs(mustSet), sortedPairs(cannotSet), nil
}

// AsSeedSets converts to seeded k-means's native form: the merged object
// labels grouped by class, each class's objects ascending. Cannot-links are
// dropped; dimension labels do not apply to this form.
func (s *Supervision) AsSeedSets() (map[int][]int, error) {
	labels, err := s.mergedLabels()
	if err != nil {
		return nil, err
	}
	sets := map[int][]int{}
	for o, c := range labels {
		sets[c] = append(sets[c], o)
	}
	for c := range sets {
		sort.Ints(sets[c])
	}
	return sets, nil
}

func orderPair(p [2]int) [2]int {
	if p[0] > p[1] {
		return [2]int{p[1], p[0]}
	}
	return p
}

func sortedPairs(set map[[2]int]bool) [][2]int {
	if len(set) == 0 {
		return nil
	}
	out := make([][2]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// ParseConstraints reads a must/cannot-link pair file. The language,
// accepted exactly (pinned by FuzzParseConstraints):
//
//   - lines are separated by '\n'; a final newline is optional;
//   - a line whose first non-blank character is '#' is a comment; blank
//     lines are skipped;
//   - every other line is three whitespace-separated fields:
//     "must <i> <j>" or "cannot <i> <j>", where <i> and <j> are distinct
//     non-negative base-10 integers (object indices).
//
// Pairs are returned in file order, unvalidated against any dataset shape —
// callers run Supervision.Validate once the shape is known.
func ParseConstraints(r io.Reader) (must, cannot [][2]int, err error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("constraints: %w", err)
	}
	for line, l := range strings.Split(string(raw), "\n") {
		line++
		text := strings.TrimSpace(l)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, nil, fmt.Errorf("constraints line %d: want \"must|cannot <i> <j>\", got %d fields", line, len(fields))
		}
		a, err := parseIndex(fields[1])
		if err != nil {
			return nil, nil, fmt.Errorf("constraints line %d: %w", line, err)
		}
		b, err := parseIndex(fields[2])
		if err != nil {
			return nil, nil, fmt.Errorf("constraints line %d: %w", line, err)
		}
		if a == b {
			return nil, nil, fmt.Errorf("constraints line %d: pair links object %d to itself", line, a)
		}
		switch fields[0] {
		case "must":
			must = append(must, [2]int{a, b})
		case "cannot":
			cannot = append(cannot, [2]int{a, b})
		default:
			return nil, nil, fmt.Errorf("constraints line %d: unknown kind %q (want \"must\" or \"cannot\")", line, fields[0])
		}
	}
	return must, cannot, nil
}

// ParseSeedSets reads a seed-set file. The language, accepted exactly
// (pinned by FuzzParseSeedSet):
//
//   - lines are separated by '\n'; a final newline is optional;
//   - a line whose first non-blank character is '#' is a comment; blank
//     lines are skipped;
//   - every other line is two or more whitespace-separated non-negative
//     base-10 integers: "<class> <obj> [<obj> ...]".
//
// A class may appear on several lines (the sets merge); duplicate objects
// within one class collapse; an object seeded into two different classes is
// an error. Each returned class's objects are ascending.
func ParseSeedSets(r io.Reader) (map[int][]int, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("seeds: %w", err)
	}
	sets := map[int]map[int]bool{}
	classOf := map[int]int{}
	for line, l := range strings.Split(string(raw), "\n") {
		line++
		text := strings.TrimSpace(l)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("seeds line %d: want \"<class> <obj> [<obj> ...]\", got %d fields", line, len(fields))
		}
		class, err := parseIndex(fields[0])
		if err != nil {
			return nil, fmt.Errorf("seeds line %d: %w", line, err)
		}
		for _, f := range fields[1:] {
			obj, err := parseIndex(f)
			if err != nil {
				return nil, fmt.Errorf("seeds line %d: %w", line, err)
			}
			if prev, ok := classOf[obj]; ok && prev != class {
				return nil, fmt.Errorf("seeds line %d: object %d seeded into classes %d and %d", line, obj, prev, class)
			}
			classOf[obj] = class
			if sets[class] == nil {
				sets[class] = map[int]bool{}
			}
			sets[class][obj] = true
		}
	}
	out := make(map[int][]int, len(sets))
	for c, objs := range sets {
		list := make([]int, 0, len(objs))
		for o := range objs {
			list = append(list, o)
		}
		sort.Ints(list)
		out[c] = list
	}
	return out, nil
}

// ParseKnowledge reads SSPC's knowledge file (labeled objects Io and labeled
// dimensions Iv). The language, accepted exactly (pinned by
// FuzzParseKnowledge):
//
//   - lines are separated by '\n'; a final newline is optional;
//   - a line whose first non-blank character is '#' is a comment; blank
//     lines are skipped;
//   - every other line is exactly three whitespace-separated fields:
//     "object <index> <class>" or "dim <index> <class>", where <index> and
//     <class> are non-negative base-10 integers.
//
// Labeling one object into two different classes is an error (an object has
// one class); a dimension may be relevant to several classes, and duplicate
// labels collapse. The result is unvalidated against any dataset shape —
// callers run Knowledge.Validate (or Supervision.Validate) once the shape is
// known.
func ParseKnowledge(r io.Reader) (*dataset.Knowledge, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("knowledge: %w", err)
	}
	kn := dataset.NewKnowledge()
	for line, l := range strings.Split(string(raw), "\n") {
		line++
		text := strings.TrimSpace(l)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("knowledge line %d: want \"object|dim <index> <class>\", got %d fields", line, len(fields))
		}
		id, err := parseIndex(fields[1])
		if err != nil {
			return nil, fmt.Errorf("knowledge line %d: %w", line, err)
		}
		class, err := parseIndex(fields[2])
		if err != nil {
			return nil, fmt.Errorf("knowledge line %d: %w", line, err)
		}
		switch fields[0] {
		case "object":
			if prev, ok := kn.ObjectLabels[id]; ok && prev != class {
				return nil, fmt.Errorf("knowledge line %d: object %d labeled into classes %d and %d", line, id, prev, class)
			}
			kn.LabelObject(id, class)
		case "dim":
			kn.LabelDim(id, class)
		default:
			return nil, fmt.Errorf("knowledge line %d: unknown kind %q (want \"object\" or \"dim\")", line, fields[0])
		}
	}
	return kn, nil
}

// parseIndex parses a non-negative base-10 integer index. Signs, blanks,
// hex, and anything strconv.Atoi would reject are errors, so the accepted
// language is exactly the digits-only spelling.
func parseIndex(s string) (int, error) {
	if s == "" || s[0] == '-' || s[0] == '+' {
		return 0, fmt.Errorf("index %q is not a non-negative integer", s)
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("index %q is not a non-negative integer", s)
	}
	return v, nil
}
