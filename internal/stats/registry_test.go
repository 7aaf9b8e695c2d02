package stats

import (
	"strings"
	"testing"
)

func TestRegistryRegisterAndValue(t *testing.T) {
	r := NewRegistry()
	n := uint64(0)
	r.Register("a.count", func() uint64 { return n })
	var c Counter
	c.Add(7)
	r.RegisterCounter("b.count", &c)

	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if v, ok := r.Value("a.count"); !ok || v != 0 {
		t.Fatalf("a.count = %d,%v", v, ok)
	}
	n = 42
	if v := r.MustValue("a.count"); v != 42 {
		t.Fatalf("a.count after update = %d, want 42 (getters must read live state)", v)
	}
	if v := r.MustValue("b.count"); v != 7 {
		t.Fatalf("b.count = %d, want 7", v)
	}
	if _, ok := r.Value("missing"); ok {
		t.Fatal("Value of unregistered name reported ok")
	}
}

func TestRegistryMustValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustValue of unregistered name did not panic")
		}
	}()
	NewRegistry().MustValue("nope")
}

func TestRegistryReplaceOnDuplicate(t *testing.T) {
	r := NewRegistry()
	r.Register("x", func() uint64 { return 1 })
	r.Register("x", func() uint64 { return 2 })
	if r.Len() != 1 {
		t.Fatalf("Len after re-register = %d, want 1", r.Len())
	}
	if v := r.MustValue("x"); v != 2 {
		t.Fatalf("re-registered x = %d, want the new getter's 2", v)
	}
}

func TestRegistrySnapshotSortedAndPrefix(t *testing.T) {
	r := NewRegistry()
	r.Register("cpu1.ticks", func() uint64 { return 10 })
	r.Register("bus.cycles", func() uint64 { return 5 })
	r.Register("cpu0.ticks", func() uint64 { return 20 })

	// Sorted order keeps names that share a prefix (cpu0., cpu1.)
	// together, whatever the registration order.
	snap := r.Snapshot()
	want := []string{"bus.cycles", "cpu0.ticks", "cpu1.ticks"}
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d", len(snap), len(want))
	}
	for i, nv := range snap {
		if nv.Name != want[i] {
			t.Fatalf("snapshot[%d] = %q, want %q", i, nv.Name, want[i])
		}
	}
	if !strings.Contains(r.String(), "bus.cycles 5\n") {
		t.Fatalf("String missing entry:\n%s", r.String())
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	r := NewRegistry()
	for name, f := range map[string]func(){
		"empty name": func() { r.Register("", func() uint64 { return 0 }) },
		"nil getter": func() { r.Register("x", nil) },
		"nil counter": func() {
			r.RegisterCounter("y", nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}
