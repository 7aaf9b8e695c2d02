// Package trace defines memory-reference streams for the processor model:
// the reference record format, trace recording and replay, and the
// synthetic generators that stand in for the paper's (unavailable) DEC
// internal program traces. The parameterized generator reproduces the
// quantities the paper's analysis consumes — miss rate M, dirty fraction
// D, and sharing fraction S — while the working-set generator produces
// organic locality for the workload studies.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"firefly/internal/mbus"
)

// Kind classifies a reference, following the Emer & Clark per-instruction
// breakdown the paper uses (instruction reads, data reads, data writes).
type Kind uint8

const (
	// InstrRead is an instruction-stream read (IR = .95 per instruction).
	InstrRead Kind = iota
	// DataRead is a data read (DR = .78 per instruction).
	DataRead
	// DataWrite is a data write (DW = .40 per instruction).
	DataWrite
)

// String returns the reference-kind mnemonic.
func (k Kind) String() string {
	switch k {
	case InstrRead:
		return "I"
	case DataRead:
		return "R"
	case DataWrite:
		return "W"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsWrite reports whether the reference modifies memory.
func (k Kind) IsWrite() bool { return k == DataWrite }

// Ref is one memory reference.
type Ref struct {
	Kind    Kind
	Addr    mbus.Addr
	Data    uint32 // resulting word for writes
	Partial bool   // sub-longword write (byte or word on the VAX)
}

// Source produces the address stream for a processor. The processor model
// decides reference kinds from the architectural mix and asks the source
// where each reference goes. Implementations must be deterministic.
type Source interface {
	Next(kind Kind) Ref
}

// Residency lets a generator inspect the cache it feeds, so it can
// construct guaranteed hits or guaranteed misses. core.Cache implements
// it. This is a measurement instrument, not a simulation shortcut: the
// paper's model likewise takes the miss rate as a given input rather than
// deriving it from program behaviour.
type Residency interface {
	Contains(addr mbus.Addr) bool
	ResidentLine(idx int) (mbus.Addr, bool)
	Lines() int
}

// Recorder wraps a Source and keeps every reference it produces, for
// replay or inspection.
type Recorder struct {
	Inner Source
	Refs  []Ref
	Limit int // 0 = unlimited
}

// Next implements Source.
func (r *Recorder) Next(kind Kind) Ref {
	ref := r.Inner.Next(kind)
	if r.Limit == 0 || len(r.Refs) < r.Limit {
		r.Refs = append(r.Refs, ref)
	}
	return ref
}

// Replayer replays a recorded reference stream. Kind arguments to Next are
// ignored; the recorded kinds are returned in order. When the stream is
// exhausted it wraps around (a workload loop), so replays can run
// arbitrarily long.
type Replayer struct {
	Refs []Ref
	pos  int
	// Wraps counts how many times the stream restarted.
	Wraps int
}

// Next implements Source.
func (r *Replayer) Next(Kind) Ref {
	if len(r.Refs) == 0 {
		panic("trace: replaying an empty trace")
	}
	ref := r.Refs[r.pos]
	r.pos++
	if r.pos == len(r.Refs) {
		r.pos = 0
		r.Wraps++
	}
	return ref
}

// Write encodes refs in the text trace format, one reference per line:
//
//	I 0x001234
//	R 0x005678
//	W 0x009abc 0x00000007
//	w 0x009abc 0x00000008    (lower-case w: partial write)
func Write(w io.Writer, refs []Ref) error {
	bw := bufio.NewWriter(w)
	for _, r := range refs {
		var err error
		switch {
		case r.Kind == DataWrite && r.Partial:
			_, err = fmt.Fprintf(bw, "w %#08x %#010x\n", uint32(r.Addr), r.Data)
		case r.Kind == DataWrite:
			_, err = fmt.Fprintf(bw, "W %#08x %#010x\n", uint32(r.Addr), r.Data)
		default:
			_, err = fmt.Fprintf(bw, "%s %#08x\n", r.Kind, uint32(r.Addr))
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes the text trace format.
func Read(r io.Reader) ([]Ref, error) {
	var refs []Ref
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		ref := Ref{}
		switch fields[0] {
		case "I":
			ref.Kind = InstrRead
		case "R":
			ref.Kind = DataRead
		case "W":
			ref.Kind = DataWrite
		case "w":
			ref.Kind = DataWrite
			ref.Partial = true
		default:
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", lineNo, fields[0])
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("trace: line %d: missing address", lineNo)
		}
		var addr uint32
		if _, err := fmt.Sscanf(fields[1], "%v", &addr); err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address %q: %v", lineNo, fields[1], err)
		}
		ref.Addr = mbus.Addr(addr)
		if ref.Kind == DataWrite {
			if len(fields) < 3 {
				return nil, fmt.Errorf("trace: line %d: write missing data", lineNo)
			}
			var data uint32
			if _, err := fmt.Sscanf(fields[2], "%v", &data); err != nil {
				return nil, fmt.Errorf("trace: line %d: bad data %q: %v", lineNo, fields[2], err)
			}
			ref.Data = data
		}
		refs = append(refs, ref)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return refs, nil
}
