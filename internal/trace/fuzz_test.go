package trace_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mosaicsim/internal/dae"
	"mosaicsim/internal/trace"
	"mosaicsim/internal/workloads"
)

// FuzzTraceDecode feeds Read arbitrary bytes: it must return an error that
// says "trace:", or a trace that re-encodes to bytes which decode to an equal
// trace — and never panic or take a second. A version 2 input re-encodes to
// exactly the bytes Read consumed: every value has one encoding. The corpus starts from real
// traces in version 2 (SPMD with atomics, an accelerator call, DAE pairs with
// comm events), from a version 1 file an older build wrote, and from the
// count lie that killed the old decoder.
func FuzzTraceDecode(f *testing.F) {
	add := func(tr *trace.Trace, err error) {
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, name := range []string{"histo", "sgemm-accel"} {
		_, tr, err := workloads.ByName(name).Trace(2, workloads.Tiny)
		add(tr, err)
	}
	w := workloads.EWSD()
	k, err := w.Kernel()
	if err != nil {
		f.Fatal(err)
	}
	sl, err := dae.Slice(k)
	if err != nil {
		f.Fatal(err)
	}
	add(w.TracePairs(sl.Access, sl.Execute, 1, workloads.Tiny))
	f.Add(binary.AppendUvarint([]byte("MSTR\x01\x00\x01\x00\x00"), 1<<62))
	v1, err := os.ReadFile("testdata/histo_tiny_2t_6188979.mstr")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		start := time.Now()
		tr, err := trace.Read(bytes.NewReader(data))
		if d := time.Since(start); d > time.Second {
			t.Fatalf("decoding %d bytes took %v", len(data), d)
		}
		if err != nil {
			if tr != nil || !strings.HasPrefix(err.Error(), "trace: ") {
				t.Fatalf("Read = %v, %q; want nil and an error that says trace:", tr, err)
			}
			return
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if data[4] == 2 && !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatal("a version 2 trace re-encodes to other bytes than it was read from")
		}
		again, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatal("re-encoded trace decodes to a different trace")
		}
	})
}
