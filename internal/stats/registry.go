package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Getter reads one counter's current value.
type Getter func() uint64

// NamedValue is one registry entry's snapshot.
type NamedValue struct {
	Name  string
	Value uint64
}

// Registry names and owns every counter in a machine. Components register
// their counters under hierarchical dotted names ("bus.ops.mread",
// "cpu0.instructions", "cache2.read_hits") and reports are built by
// reading the registry rather than hand-copying struct fields — so a new
// counter is visible to every consumer the moment it is registered, and a
// report can never silently drift from the machine's actual instrumentation.
//
// Getters read live component state; Registry itself holds no counts.
// It is not safe for concurrent use (neither is the machine).
type Registry struct {
	names   []string // registration order
	getters map[string]Getter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{getters: make(map[string]Getter)}
}

// Register adds a named counter. Registering an existing name replaces
// its getter — a component freshly installed on the machine (a rebooted
// kernel, a reattached engine) takes over its names.
func (r *Registry) Register(name string, get Getter) {
	if name == "" {
		panic("stats: registering an empty counter name")
	}
	if get == nil {
		panic(fmt.Sprintf("stats: registering %q with a nil getter", name))
	}
	if _, exists := r.getters[name]; !exists {
		r.names = append(r.names, name)
	}
	r.getters[name] = get
}

// RegisterCounter registers a Counter by pointer.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if c == nil {
		panic(fmt.Sprintf("stats: registering %q with a nil counter", name))
	}
	r.Register(name, func() uint64 { return c.Value() })
}

// Len returns the number of registered counters.
func (r *Registry) Len() int { return len(r.names) }

// Names returns every registered name, sorted.
func (r *Registry) Names() []string {
	out := append([]string(nil), r.names...)
	sort.Strings(out)
	return out
}

// Value returns the named counter's current value; ok is false for
// unregistered names.
func (r *Registry) Value(name string) (v uint64, ok bool) {
	get, ok := r.getters[name]
	if !ok {
		return 0, false
	}
	return get(), true
}

// MustValue returns the named counter's current value, panicking on an
// unregistered name — a report asking for a counter that does not exist
// is a wiring bug, not a runtime condition.
func (r *Registry) MustValue(name string) uint64 {
	v, ok := r.Value(name)
	if !ok {
		panic(fmt.Sprintf("stats: counter %q not registered", name))
	}
	return v
}

// Snapshot reads every counter, returning name/value pairs sorted by name.
func (r *Registry) Snapshot() []NamedValue {
	out := make([]NamedValue, 0, len(r.names))
	for _, name := range r.Names() {
		out = append(out, NamedValue{Name: name, Value: r.getters[name]()})
	}
	return out
}

// String renders the full snapshot, one "name value" line per counter.
func (r *Registry) String() string {
	var b strings.Builder
	for _, nv := range r.Snapshot() {
		fmt.Fprintf(&b, "%s %d\n", nv.Name, nv.Value)
	}
	return b.String()
}
