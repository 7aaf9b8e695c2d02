package rpc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{Kind: Call, ID: 42, Proc: 7, Payload: []byte("hello firefly")}
	buf, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != Call || got.ID != 42 || got.Proc != 7 || string(got.Payload) != "hello firefly" {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(id uint32, proc uint16, payload []byte, reply bool) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		kind := Call
		if reply {
			kind = Reply
		}
		m := &Message{Kind: kind, ID: id, Proc: proc, Payload: payload}
		buf, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil || got.Kind != kind || got.ID != id || got.Proc != proc {
			return false
		}
		if len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageErrors(t *testing.T) {
	if _, err := (&Message{Kind: 9}).Marshal(); err == nil {
		t.Fatal("bad kind marshalled")
	}
	if _, err := (&Message{Kind: Call, Payload: make([]byte, MaxPayload+1)}).Marshal(); err == nil {
		t.Fatal("oversized payload marshalled")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil buffer unmarshalled")
	}
	if _, err := Unmarshal(make([]byte, 5)); err == nil {
		t.Fatal("short buffer unmarshalled")
	}
	good, _ := (&Message{Kind: Call, Payload: []byte{1, 2, 3}}).Marshal()
	bad := append([]byte(nil), good...)
	bad[0] = 9
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("corrupt kind unmarshalled")
	}
	if _, err := Unmarshal(good[:len(good)-1]); err == nil {
		t.Fatal("truncated payload unmarshalled")
	}
}

func TestWireBits(t *testing.T) {
	small := &Message{Kind: Call, Payload: make([]byte, 100)}
	if small.WireBits() != uint64(111+46)*8 {
		t.Fatalf("small wire bits = %d", small.WireBits())
	}
	big := &Message{Kind: Call, Payload: make([]byte, 3000)}
	// 3011 bytes -> 3 fragments -> 3*46 overhead.
	if big.WireBits() != uint64(3011+138)*8 {
		t.Fatalf("big wire bits = %d", big.WireBits())
	}
}

// TestThroughputKneeAtThreeThreads reproduces the §6 claim from the
// bound: the data transfer protocol sustains ~4.6 Mbit/s with an average
// of three concurrent threads, and more threads do not help (the
// per-connection server stage is saturated). The knee N* = R0/Dmax sits
// between two and three threads, which is why "three" is the paper's
// number. The 1-4 thread values are the ones the experiments print.
func TestThroughputKneeAtThreeThreads(t *testing.T) {
	cfg := Config{}
	for i, want := range []float64{1.82, 3.64, 4.60, 4.60} {
		if got := cfg.Bound(i + 1).Mbps; math.Abs(got-want) > 0.005 {
			t.Errorf("%d threads: %.3f Mbit/s, want %.2f", i+1, got, want)
		}
	}
	three := cfg.Bound(3)
	if math.Abs(three.Mbps-4.6) > 0.25 {
		t.Fatalf("3-thread bandwidth = %.2f Mbit/s, want ~4.6", three.Mbps)
	}
	if three.Knee <= 2 || three.Knee > 3 {
		t.Fatalf("knee at %.2f threads, want in (2, 3]", three.Knee)
	}
	if one := cfg.Bound(1).Mbps; one > 0.6*three.Mbps {
		t.Fatalf("1-thread bandwidth %.2f too close to saturation %.2f", one, three.Mbps)
	}
	if cfg.Bound(2).Mbps <= cfg.Bound(1).Mbps {
		t.Fatal("no scaling from 1 to 2 threads")
	}
	// Beyond the knee: flat.
	for _, n := range []int{4, 6, 8} {
		if b := cfg.Bound(n).Mbps; b != three.Mbps {
			t.Fatalf("%d-thread bandwidth %.2f departs from saturation %.2f", n, b, three.Mbps)
		}
	}
}

// TestBoundFeasible checks the bound over the whole payload range: every
// field is finite, throughput never falls as threads are added, latency
// never falls either, and no station is driven past full utilization.
func TestBoundFeasible(t *testing.T) {
	f := func(payload uint16, threads uint8) bool {
		cfg := Config{PayloadBytes: int(payload)}
		n := int(threads%16) + 1
		b, next := cfg.Bound(n), cfg.Bound(n+1)
		for _, v := range []float64{b.Mbps, b.MeanLatencyUS, b.Knee, b.ClientUtil, b.WireUtil, b.ServerUtil} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return false
			}
		}
		return next.Mbps >= b.Mbps && next.MeanLatencyUS >= b.MeanLatencyUS &&
			max(b.ClientUtil, b.WireUtil, b.ServerUtil) <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestServerIsBottleneckAtSaturation(t *testing.T) {
	b := Config{}.Bound(6)
	if math.Abs(b.ServerUtil-1) > 1e-12 {
		t.Fatalf("server utilization %.3f at saturation, want 1", b.ServerUtil)
	}
	if b.WireUtil >= 0.95 || b.ClientUtil >= 0.95 {
		t.Fatalf("wire %.2f / client %.2f utilization should not saturate first",
			b.WireUtil, b.ClientUtil)
	}
}

func TestLatencyGrowsWithQueueing(t *testing.T) {
	one := Config{}.Bound(1)
	eight := Config{}.Bound(8)
	if eight.MeanLatencyUS <= one.MeanLatencyUS {
		t.Fatalf("latency did not grow with queueing: %v vs %v µs",
			one.MeanLatencyUS, eight.MeanLatencyUS)
	}
	// Single-thread latency is the raw RTT R0: ~4.5 ms for a 1 KB call
	// on this calibration.
	if one.MeanLatencyUS < 3000 || one.MeanLatencyUS > 6000 {
		t.Fatalf("1-thread RTT = %v µs, want 3-6 ms", one.MeanLatencyUS)
	}
}

func TestPayloadScaling(t *testing.T) {
	smallPay := Config{PayloadBytes: 256}.Bound(4)
	largePay := Config{PayloadBytes: 4096}.Bound(4)
	// Larger fragments amortize fixed costs: more payload bandwidth.
	if largePay.Mbps <= smallPay.Mbps {
		t.Fatalf("large fragments slower: %v vs %v", largePay.Mbps, smallPay.Mbps)
	}
}

func TestBoundValidation(t *testing.T) {
	for _, f := range []func(){
		func() { Config{}.Bound(0) },
		func() { Config{PayloadBytes: -1}.Bound(1) },
		func() { Config{PayloadBytes: MaxPayload + 1}.Bound(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
