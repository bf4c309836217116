package traffic

import (
	"testing"
	"time"

	"meshcast/internal/linkquality"
	"meshcast/internal/metric"
	"meshcast/internal/odmrp"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

// newRouter returns a router whose sends are captured in the returned slice.
func newRouter(engine *sim.Engine) (*odmrp.Router, *[]*packet.Packet) {
	table := linkquality.NewTable(512, 10, 0)
	r := odmrp.New(engine, 0, metric.MustNew(metric.SPP), table, odmrp.DefaultParams())
	var sent []*packet.Packet
	r.Send = func(p *packet.Packet) bool {
		sent = append(sent, p)
		return true
	}
	return r, &sent
}

func TestCBRSendsAtConfiguredRate(t *testing.T) {
	engine := sim.NewEngine(1)
	r, sent := newRouter(engine)
	cbr := NewCBR(engine, r, CBRConfig{
		Group:        1,
		PayloadBytes: 512,
		Interval:     50 * time.Millisecond,
	})
	cbr.Start()
	engine.Run(10 * time.Second)
	// 20 pkt/s for ~10 s ≈ 200 data packets (plus control floods).
	data := 0
	for _, p := range *sent {
		if p.Kind == packet.TypeData {
			data++
			if p.PayloadBytes != 512 {
				t.Fatalf("payload = %d", p.PayloadBytes)
			}
		}
	}
	if data < 190 || data > 210 {
		t.Fatalf("data packets = %d, want ~200", data)
	}
	if cbr.Sent != uint64(data) {
		t.Fatalf("Sent = %d, data = %d", cbr.Sent, data)
	}
}

func TestCBRStartDelay(t *testing.T) {
	engine := sim.NewEngine(1)
	r, sent := newRouter(engine)
	cbr := NewCBR(engine, r, CBRConfig{
		Group:        1,
		PayloadBytes: 100,
		Interval:     50 * time.Millisecond,
		Start:        5 * time.Second,
	})
	cbr.Start()
	engine.Run(4 * time.Second)
	for _, p := range *sent {
		if p.Kind == packet.TypeData {
			t.Fatal("data sent before the configured start")
		}
	}
	engine.Run(10 * time.Second)
	if cbr.Sent == 0 {
		t.Fatal("no data sent after start")
	}
}

func TestCBRStartRegistersSource(t *testing.T) {
	engine := sim.NewEngine(1)
	r, sent := newRouter(engine)
	NewCBR(engine, r, CBRConfig{Group: 3, PayloadBytes: 100, Interval: time.Second}).Start()
	engine.Run(100 * time.Millisecond)
	// StartSource floods a JOIN QUERY immediately.
	query := false
	for _, p := range *sent {
		if p.Kind == packet.TypeJoinQuery && p.Group == 3 {
			query = true
		}
	}
	if !query {
		t.Fatal("CBR did not register the router as an ODMRP source")
	}
}

func TestCBRStopNow(t *testing.T) {
	engine := sim.NewEngine(1)
	r, _ := newRouter(engine)
	cbr := NewCBR(engine, r, CBRConfig{Group: 1, PayloadBytes: 100, Interval: 50 * time.Millisecond})
	cbr.Start()
	engine.Run(time.Second)
	atStop := cbr.Sent
	cbr.StopNow()
	engine.Run(5 * time.Second)
	if cbr.Sent != atStop {
		t.Fatalf("Sent grew after StopNow: %d -> %d", atStop, cbr.Sent)
	}
}

func TestCBRJitterVariesGaps(t *testing.T) {
	engine := sim.NewEngine(7)
	r, sent := newRouter(engine)
	NewCBR(engine, r, CBRConfig{
		Group:        1,
		PayloadBytes: 100,
		Interval:     50 * time.Millisecond,
		Jitter:       5 * time.Millisecond,
	}).Start()
	engine.Run(3 * time.Second)
	var times []time.Duration
	for _, p := range *sent {
		if p.Kind == packet.TypeData {
			times = append(times, p.SentAt)
		}
	}
	if len(times) < 10 {
		t.Fatalf("too few packets: %d", len(times))
	}
	varied := false
	for i := 2; i < len(times); i++ {
		if times[i]-times[i-1] != times[i-1]-times[i-2] {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("jitter produced perfectly regular gaps")
	}
}
