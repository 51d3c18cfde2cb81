package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kn.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadKnowledgeParsesEntries(t *testing.T) {
	path := writeTemp(t, `
# labeled objects
object 5 0
object 9 1

# labeled dimensions
dim 12 0
dim 12 1
dim 3 1
`)
	kn, err := readKnowledge(path)
	if err != nil {
		t.Fatal(err)
	}
	if kn.ObjectLabels[5] != 0 || kn.ObjectLabels[9] != 1 {
		t.Errorf("object labels = %v", kn.ObjectLabels)
	}
	d0 := kn.DimsOfClass(0)
	if len(d0) != 1 || d0[0] != 12 {
		t.Errorf("class 0 dims = %v", d0)
	}
	d1 := kn.DimsOfClass(1)
	if len(d1) != 2 || d1[0] != 3 || d1[1] != 12 {
		t.Errorf("class 1 dims = %v", d1)
	}
}

func TestReadKnowledgeRejectsBadLines(t *testing.T) {
	for _, bad := range []string{
		"object five 0\n",
		"object 1\n",
		"banana 1 2\n",
		// Lines the old fmt.Sscanf parser silently accepted.
		"object 3 1 junk\n", // trailing tokens were ignored
		"object 3x 1\n",     // glued garbage: %d stopped at the digit prefix
		"object 3 1x\n",
		"object -1 0\n", // signs are not part of the index language
		"object +1 0\n",
		"object 0x10 2\n",
		// An object has one class; relabeling into another is a conflict.
		"object 4 0\nobject 4 1\n",
	} {
		path := writeTemp(t, bad)
		if _, err := readKnowledge(path); err == nil {
			t.Errorf("line %q should fail to parse", bad)
		}
	}
}

func TestReadKnowledgeMissingFile(t *testing.T) {
	if _, err := readKnowledge("/nonexistent/kn.txt"); err == nil {
		t.Error("missing file should error")
	}
}

func TestReadConstraintsParsesPairs(t *testing.T) {
	path := writeTemp(t, `
# pairwise supervision
must 0 1
must 5 6
cannot 0 5
`)
	must, cannot, err := readConstraints(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(must) != 2 || must[0] != [2]int{0, 1} || must[1] != [2]int{5, 6} {
		t.Errorf("must = %v", must)
	}
	if len(cannot) != 1 || cannot[0] != [2]int{0, 5} {
		t.Errorf("cannot = %v", cannot)
	}
}

func TestReadConstraintsRejectsBadLines(t *testing.T) {
	for _, bad := range []string{
		"must one 2\n",
		"must 1\n",
		"maybe 1 2\n",
		"must 3 3\n",
	} {
		path := writeTemp(t, bad)
		if _, _, err := readConstraints(path); err == nil {
			t.Errorf("line %q should fail to parse", bad)
		}
	}
	if _, _, err := readConstraints("/nonexistent/cons.txt"); err == nil {
		t.Error("missing file should error")
	}
}

func TestReadSeedSetsParsesSets(t *testing.T) {
	path := writeTemp(t, `
# class, then its seed objects
0 3 5 7
1 2
`)
	sets, err := readSeedSets(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 {
		t.Fatalf("sets = %v", sets)
	}
	if got := sets[0]; len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 7 {
		t.Errorf("class 0 seeds = %v", got)
	}
	if got := sets[1]; len(got) != 1 || got[0] != 2 {
		t.Errorf("class 1 seeds = %v", got)
	}
}

func TestReadSeedSetsRejectsBadLines(t *testing.T) {
	for _, bad := range []string{
		"0\n",       // class with no objects
		"a 1 2\n",   // non-numeric class
		"0 1 two\n", // non-numeric object
	} {
		path := writeTemp(t, bad)
		if _, err := readSeedSets(path); err == nil {
			t.Errorf("line %q should fail to parse", bad)
		}
	}
	if _, err := readSeedSets("/nonexistent/seeds.txt"); err == nil {
		t.Error("missing file should error")
	}
}

// sspcOptions is modelOptions for an SSPC fit at the CLI defaults (k=3).
func sspcOptions(t *testing.T, sup *core.Supervision, validate bool) string {
	t.Helper()
	fp, err := modelOptions("sspc", 3, "m", 0.5, 0.1, 0, 0, 0, 0, "none", sup, validate)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestModelOptionsSeparatesSupervision: a saved model's options string — and
// with it the registry key — tells apart SSPC fits that consumed different
// labels or ran -validate, while the same labels reached through -seeds or
// -knowledge give one string and an unsupervised fit keeps its old string.
func TestModelOptionsSeparatesSupervision(t *testing.T) {
	const unsupervised = "algo=sspc k=3 scheme=m m=0.5 p=0.1 l=0 w=0 restarts=0 earlystop=0 normalize=none"
	none := sspcOptions(t, &core.Supervision{}, false)
	if none != unsupervised {
		t.Errorf("unsupervised options = %q, want %q", none, unsupervised)
	}

	knowledge := func(content string) *core.Supervision {
		kn, err := readKnowledge(writeTemp(t, content))
		if err != nil {
			t.Fatal(err)
		}
		return &core.Supervision{Knowledge: kn}
	}
	a := sspcOptions(t, knowledge("object 1 0\nobject 2 0\nobject 7 1\n"), false)
	b := sspcOptions(t, knowledge("object 1 0\nobject 2 1\nobject 7 1\n"), false)
	dims := sspcOptions(t, knowledge("object 1 0\nobject 2 0\nobject 7 1\ndim 4 1\n"), false)
	for _, fp := range []string{a, b, dims} {
		if !strings.HasPrefix(fp, unsupervised+" labels=") {
			t.Errorf("supervised options %q do not extend %q with a label digest", fp, unsupervised)
		}
	}
	if a == b || a == dims || b == dims {
		t.Errorf("different labels share an options string: %q, %q, %q", a, b, dims)
	}

	sets, err := readSeedSets(writeTemp(t, "0 1 2\n1 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if seeded := sspcOptions(t, &core.Supervision{SeedSets: sets}, false); seeded != a {
		t.Errorf("-seeds options = %q, want the -knowledge string %q for the same labels", seeded, a)
	}

	if got := sspcOptions(t, &core.Supervision{}, true); got != unsupervised+" validate=true" {
		t.Errorf("-validate options = %q, want %q", got, unsupervised+" validate=true")
	}
	if got := sspcOptions(t, knowledge("object 1 0\nobject 2 0\nobject 7 1\n"), true); got != a+" validate=true" {
		t.Errorf("-validate options with labels = %q, want %q", got, a+" validate=true")
	}
}
