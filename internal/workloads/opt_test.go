package workloads

import (
	"testing"

	"mosaicsim/internal/ir"
)

// TestEveryPassChangesAShippedKernel keeps the pass list to passes that earn
// their place: each one, run alone, changes the printed IR of at least one
// shipped kernel. A pass that changes none costs code, a flag spelling and a
// slot in every OptConfig.Hash for nothing.
func TestEveryPassChangesAShippedKernel(t *testing.T) {
	base := map[string]string{}
	for _, w := range All() {
		f, err := w.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		base[w.Name] = f.String()
	}
	for _, pass := range ir.PassNames {
		changed := 0
		for _, w := range All() {
			f, err := w.WithOpt(ir.OptConfig{Passes: []string{pass}}).Kernel()
			if err != nil {
				t.Fatal(err)
			}
			if f.String() != base[w.Name] {
				changed++
			}
		}
		if changed == 0 {
			t.Errorf("pass %q alone changes none of the %d shipped kernels", pass, len(base))
		}
		t.Logf("%s alone changes %d of %d kernels", pass, changed, len(base))
	}
}
