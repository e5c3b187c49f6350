package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mosaicsim/internal/dae"
	"mosaicsim/internal/trace"
	"mosaicsim/internal/workloads"
)

// TestReadsTraceOfOlderBuild pins the refusal of older formats: testdata
// holds histo at tiny scale on two tiles as written by `mosaic-trace -o` of
// commit 6188979 (version 1: the path is block IDs, each event names its
// instruction, and each address is a delta from the access before). Read
// refuses it with a *DecodeError that names the version and wraps
// ErrOlderVersion, whose cure is to trace the kernel again.
func TestReadsTraceOfOlderBuild(t *testing.T) {
	v1, err := os.ReadFile("testdata/histo_tiny_2t_6188979.mstr")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(bytes.NewReader(v1))
	var de *trace.DecodeError
	if tr != nil || !errors.As(err, &de) || !errors.Is(err, trace.ErrOlderVersion) ||
		err.Error() != "trace: decoding version: version 1: an older build's format: regenerate the trace" {
		t.Errorf("Read = %v, %v; want the version 1 refusal", tr, err)
	}
}

// FuzzTraceDecode feeds Read arbitrary bytes: it must return an error that
// says "trace:", or a trace that re-encodes to exactly the bytes Read
// consumed (every value has one encoding) and decodes again to an equal
// trace — and never panic or take a second. The corpus starts from real
// traces (SPMD with atomics, an accelerator call, DAE pairs with comm
// events), from a version 1 file an older build wrote and from the count lie
// that killed the old decoder, both of which Read refuses.
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
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatal("a trace re-encodes to other bytes than it was read from")
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
