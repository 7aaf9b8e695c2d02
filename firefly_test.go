package firefly_test

import (
	"strings"
	"testing"

	"firefly"
	"firefly/internal/topaz"
)

func TestNewMicroVAXFiveCPU(t *testing.T) {
	m := firefly.NewMicroVAX(5)
	m.AttachSyntheticLoad(firefly.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})
	m.Warmup(50_000)
	m.RunSeconds(0.002)
	rep := m.Report()
	if rep.Processors != 5 {
		t.Fatalf("processors = %d", rep.Processors)
	}
	if rep.BusLoad <= 0.2 || rep.BusLoad >= 0.7 {
		t.Fatalf("bus load = %v", rep.BusLoad)
	}
	if !strings.Contains(rep.String(), "5-CPU system") {
		t.Fatal("report rendering broken")
	}
}

func TestNewCVAX(t *testing.T) {
	m := firefly.NewCVAX(2)
	if m.Memory().Bytes() != 128<<20 {
		t.Fatalf("CVAX memory = %d", m.Memory().Bytes())
	}
}

func TestBootAndFork(t *testing.T) {
	m := firefly.NewMicroVAX(2)
	k := firefly.Boot(m, firefly.KernelConfig{Dispatch: topaz.MigrationAverse{}})
	k.Fork(topaz.Seq(topaz.Compute{Instructions: 10_000}), topaz.ThreadSpec{}, nil)
	if !k.RunUntilDone(20_000_000) {
		t.Fatal("thread did not finish")
	}
}

// TestTraceSchedulerEvents drives the Topaz kernel under tracing and
// checks the scheduler's event kinds appear on the stream.
func TestTraceSchedulerEvents(t *testing.T) {
	m := firefly.NewMicroVAX(2)
	ring := firefly.NewTraceRing(1 << 16)
	m.Trace(ring)
	k := firefly.Boot(m, firefly.KernelConfig{Dispatch: topaz.MigrationAverse{}, Quantum: 2000})
	for i := 0; i < 6; i++ {
		k.Fork(topaz.Seq(topaz.Compute{Instructions: 30_000}), topaz.ThreadSpec{}, nil)
	}
	if !k.RunUntilDone(200_000_000) {
		t.Fatal("threads did not finish")
	}
	var dispatches, preempts int
	for _, e := range ring.Events() {
		switch e.Kind.String() {
		case "sched.dispatch":
			dispatches++
		case "sched.preempt":
			preempts++
		}
	}
	if dispatches == 0 {
		t.Fatal("no scheduler dispatch events")
	}
	if preempts == 0 {
		t.Fatal("no preemption events with 6 threads on 2 CPUs")
	}
}

// TestTraceExportersThroughFacade runs a machine with both exporters
// attached and checks their output is well-formed.
func TestTraceExportersThroughFacade(t *testing.T) {
	var jbuf, cbuf strings.Builder
	jsonl := firefly.NewJSONLExporter(&jbuf)
	chrome := firefly.NewChromeExporter(&cbuf)

	m := firefly.NewMicroVAX(2)
	m.Trace(jsonl, chrome)
	m.AttachSyntheticLoad(firefly.SyntheticLoad{MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05})
	m.Run(5_000)
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := chrome.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(jbuf.String(), `{"cycle":`) {
		t.Fatalf("jsonl output malformed:\n%.200s", jbuf.String())
	}
	if !strings.HasPrefix(cbuf.String(), "[") || !strings.HasSuffix(strings.TrimSpace(cbuf.String()), "]") {
		t.Fatalf("chrome output not a JSON array:\n%.200s", cbuf.String())
	}
	if m.Tracer().Count() == 0 {
		t.Fatal("tracer count is zero")
	}
	if reg := m.Registry(); reg.MustValue("bus.cycles") != 5_000 {
		t.Fatalf("registry bus.cycles = %d", reg.MustValue("bus.cycles"))
	}
}

func TestProtocolSuite(t *testing.T) {
	ps := firefly.Protocols()
	if len(ps) != 5 || ps[0].Name() != "firefly" {
		t.Fatalf("protocol suite wrong: %d entries", len(ps))
	}
	if _, ok := firefly.ProtocolByName("dragon"); !ok {
		t.Fatal("dragon missing")
	}
	if _, ok := firefly.ProtocolByName("nope"); ok {
		t.Fatal("unknown protocol reported as known")
	}
	if names := firefly.ProtocolNames(); len(names) != 5 || names[0] != "firefly" {
		t.Fatalf("protocol names wrong: %v", names)
	}
	if firefly.FireflyProtocol().Name() != "firefly" {
		t.Fatal("FireflyProtocol wrong")
	}
}

func TestModelFacade(t *testing.T) {
	p := firefly.MicroVAXModel()
	pt := p.At(5)
	if pt.TP < 4.0 || pt.TP > 4.5 {
		t.Fatalf("TP(5) = %v", pt.TP)
	}
	if err := firefly.CVAXModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVariants(t *testing.T) {
	vs := firefly.Variants()
	if len(vs) != 2 || vs[0].TickCycles != 2 || vs[1].TickCycles != 1 {
		t.Fatalf("variants wrong: %+v", vs)
	}
}

func TestCustomConfig(t *testing.T) {
	mesi, ok := firefly.ProtocolByName("mesi")
	if !ok {
		t.Fatal("mesi missing")
	}
	cfg := firefly.MachineConfig{
		Processors: 3,
		Variant:    firefly.Variants()[0],
		Protocol:   mesi,
	}
	m := firefly.NewMachine(cfg)
	m.AttachSyntheticLoad(firefly.SyntheticLoad{MissRate: 0.1, ShareFraction: 0.2, SharedReadFraction: 0.2})
	m.Run(100_000)
	if m.Report().MeanCPU().Total == 0 {
		t.Fatal("custom machine made no progress")
	}
}
