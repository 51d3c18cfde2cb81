package sspc

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestOptionFields pins the exported fields of the nine algorithms' options
// types. Every field is a knob that tests and benchmarks must cover, so a
// field is kept only while something in the repository sets it to a value
// other than its default. A new field needs such a caller; a field whose
// last caller goes becomes a constant equal to its default.
func TestOptionFields(t *testing.T) {
	want := []struct {
		v      any
		fields string
	}{
		{Options{}, "K Scheme M P Knowledge GridDims Grids Representative Order Seed Restarts Workers EarlyStop Trace"},
		{PROCLUSOptions{}, "K L OutlierHandling Seed Restarts Workers EarlyStop"},
		{HARPOptions{}, "K Levels RMax Seed Restarts Workers"},
		{CLARANSOptions{}, "K MaxNeighbor Seed Restarts Workers"},
		{DOCOptions{}, "K W Alpha Beta Fast Seed Restarts Workers EarlyStop"},
		{CLIQUEOptions{}, "Xi Tau MaxSubspaceDim MaxClusters"},
		{COPKMeansOptions{}, "K Seed Restarts Workers EarlyStop"},
		{SeedKMeansOptions{}, "K Constrained MaxIterations Seed Restarts Workers EarlyStop"},
		{BiclusterOptions{}, "K Delta Seed Restarts Workers"},
	}
	total := 0
	for _, w := range want {
		typ := reflect.TypeOf(w.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		total += len(got)
		t.Logf("%s.%s (%d): %s", typ.PkgPath(), typ.Name(), len(got), strings.Join(got, " "))
		if !slices.Equal(got, strings.Fields(w.fields)) {
			t.Errorf("%s.%s fields = %v, want %s", typ.PkgPath(), typ.Name(), got, w.fields)
		}
	}
	t.Logf("%d option fields in all", total)
}
