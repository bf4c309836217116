package faults

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"meshcast/internal/packet"
	"meshcast/internal/sim"
	"meshcast/internal/stats"
)

// fakeTarget records fail/restore transitions with timestamps.
type fakeTarget struct {
	engine *sim.Engine
	events []string
	times  []time.Duration
	down   bool
}

func (f *fakeTarget) Fail() {
	f.down = true
	f.events = append(f.events, "fail")
	f.times = append(f.times, f.engine.Now())
}

func (f *fakeTarget) Restore() {
	f.down = false
	f.events = append(f.events, "restore")
	f.times = append(f.times, f.engine.Now())
}

func makeTargets(engine *sim.Engine, n int) ([]Target, []*fakeTarget) {
	fakes := make([]*fakeTarget, n)
	targets := make([]Target, n)
	for i := range fakes {
		fakes[i] = &fakeTarget{engine: engine}
		targets[i] = fakes[i]
	}
	return targets, fakes
}

func TestScriptedOutagesFireOnSchedule(t *testing.T) {
	engine := sim.NewEngine(1)
	targets, fakes := makeTargets(engine, 3)
	plan := Plan{Outages: []Outage{
		{Node: 1, Start: 10 * time.Second, Duration: 5 * time.Second},
		{Node: 2, Start: 20 * time.Second, Duration: 2 * time.Second},
	}}
	s, err := NewScheduler(engine, 7, plan, targets, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	engine.Run(time.Minute)

	if got := fakes[0].events; len(got) != 0 {
		t.Fatalf("untouched node saw events %v", got)
	}
	if got := fakes[1].events; !reflect.DeepEqual(got, []string{"fail", "restore"}) {
		t.Fatalf("node 1 events = %v", got)
	}
	if got := fakes[1].times; got[0] != 10*time.Second || got[1] != 15*time.Second {
		t.Fatalf("node 1 times = %v", got)
	}
	if got := fakes[2].times; got[0] != 20*time.Second || got[1] != 22*time.Second {
		t.Fatalf("node 2 times = %v", got)
	}
}

func TestOverlappingOutagesMerge(t *testing.T) {
	engine := sim.NewEngine(1)
	targets, fakes := makeTargets(engine, 1)
	plan := Plan{Outages: []Outage{
		{Node: 0, Start: 10 * time.Second, Duration: 10 * time.Second},
		{Node: 0, Start: 15 * time.Second, Duration: 10 * time.Second},
	}}
	s, err := NewScheduler(engine, 7, plan, targets, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if s.DownCount() != 1 {
		t.Fatalf("overlapping outages not merged: %d episodes", s.DownCount())
	}
	s.Start()
	engine.Run(time.Minute)
	// One fail, one restore — never a restore in the middle of the overlap.
	if got := fakes[0].events; !reflect.DeepEqual(got, []string{"fail", "restore"}) {
		t.Fatalf("events = %v", got)
	}
	if got := fakes[0].times[1]; got != 25*time.Second {
		t.Fatalf("restore at %v, want 25s", got)
	}
}

func TestChurnIsDeterministicAndBounded(t *testing.T) {
	build := func() *Scheduler {
		engine := sim.NewEngine(1)
		targets, _ := makeTargets(engine, 20)
		plan := Plan{Churn: &ChurnModel{
			Fraction: 0.25,
			MTBF:     30 * time.Second,
			MTTR:     5 * time.Second,
			Start:    10 * time.Second,
		}}
		s, err := NewScheduler(engine, 42, plan, targets, 5*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Timeline(), b.Timeline()) {
		t.Fatal("same seed produced different churn timelines")
	}
	tl := a.Timeline()
	if len(tl) == 0 {
		t.Fatal("25% churn over 5 minutes produced no events")
	}
	churned := map[int]bool{}
	for _, e := range tl {
		if e.At < 10*time.Second || e.At > 5*time.Minute {
			t.Fatalf("event %+v outside [start, horizon]", e)
		}
		churned[e.Node] = true
	}
	if len(churned) > 5 {
		t.Fatalf("%d nodes churned, want at most 25%% of 20 = 5", len(churned))
	}

	// A different seed draws a different schedule.
	engine := sim.NewEngine(1)
	targets, _ := makeTargets(engine, 20)
	c, err := NewScheduler(engine, 43, Plan{Churn: &ChurnModel{
		Fraction: 0.25, MTBF: 30 * time.Second, MTTR: 5 * time.Second, Start: 10 * time.Second,
	}}, targets, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Timeline(), c.Timeline()) {
		t.Fatal("different seeds produced identical churn timelines")
	}
}

func TestLinkFaultImpairment(t *testing.T) {
	engine := sim.NewEngine(1)
	targets, _ := makeTargets(engine, 4)
	plan := Plan{LinkFaults: []LinkFault{
		{From: 0, To: 1, Start: 10 * time.Second, Duration: 10 * time.Second, DropProb: 0.5},
		{From: 2, To: 3, Start: 10 * time.Second, Duration: 10 * time.Second, AttenuationDB: 10, Symmetric: true},
		{From: -1, To: -1, Start: 40 * time.Second, Duration: 5 * time.Second, DropProb: 1}, // jamming
	}}
	s, err := NewScheduler(engine, 7, plan, targets, time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	// Directional drop: 0->1 impaired, 1->0 untouched.
	if got := s.Impairment(0, 1, 15*time.Second); got.DropProb != 0.5 {
		t.Fatalf("0->1 during fault = %+v", got)
	}
	if got := s.Impairment(1, 0, 15*time.Second); got.DropProb != 0 {
		t.Fatalf("1->0 during directional fault = %+v", got)
	}
	// Outside the window: clean.
	if got := s.Impairment(0, 1, 25*time.Second); got.DropProb != 0 {
		t.Fatalf("0->1 after heal = %+v", got)
	}
	// Symmetric attenuation applies both ways (10 dB = 0.1 linear).
	for _, dir := range [][2]packet.NodeID{{2, 3}, {3, 2}} {
		got := s.Impairment(dir[0], dir[1], 12*time.Second)
		if got.Attenuation < 0.099 || got.Attenuation > 0.101 {
			t.Fatalf("%v->%v attenuation = %+v", dir[0], dir[1], got)
		}
	}
	// Jamming window hits every pair.
	if got := s.Impairment(3, 0, 42*time.Second); got.DropProb != 1 {
		t.Fatalf("jamming window = %+v", got)
	}
}

func TestPartitionCutsCrossLinksOnly(t *testing.T) {
	engine := sim.NewEngine(1)
	targets, _ := makeTargets(engine, 4)
	plan := Plan{Partitions: []Partition{
		{Start: 10 * time.Second, Duration: 10 * time.Second, SideA: []int{0, 1}},
	}}
	s, err := NewScheduler(engine, 7, plan, targets, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Impairment(0, 2, 15*time.Second); got.DropProb != 1 {
		t.Fatalf("cross-partition link = %+v, want total loss", got)
	}
	if got := s.Impairment(0, 1, 15*time.Second); got.DropProb != 0 {
		t.Fatalf("intra-partition link = %+v, want clean", got)
	}
	if got := s.Impairment(2, 3, 15*time.Second); got.DropProb != 0 {
		t.Fatalf("side-B internal link = %+v, want clean", got)
	}
	if got := s.Impairment(0, 2, 25*time.Second); got.DropProb != 0 {
		t.Fatalf("link after heal = %+v, want clean", got)
	}
}

func TestWindowsAndOnsets(t *testing.T) {
	engine := sim.NewEngine(1)
	targets, _ := makeTargets(engine, 3)
	plan := Plan{
		Outages: []Outage{
			{Node: 0, Start: 10 * time.Second, Duration: 10 * time.Second},
			{Node: 1, Start: 15 * time.Second, Duration: 10 * time.Second}, // overlaps node 0's
		},
		LinkFaults: []LinkFault{
			{From: 0, To: 1, Start: 50 * time.Second, Duration: 5 * time.Second, DropProb: 1},
		},
	}
	s, err := NewScheduler(engine, 7, plan, targets, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want := []stats.Window{
		{Start: 10 * time.Second, End: 25 * time.Second},
		{Start: 50 * time.Second, End: 55 * time.Second},
	}
	if got := s.Windows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Windows() = %v, want %v", got, want)
	}
	wantOnsets := []time.Duration{10 * time.Second, 15 * time.Second, 50 * time.Second}
	if got := s.Onsets(); !reflect.DeepEqual(got, wantOnsets) {
		t.Fatalf("Onsets() = %v, want %v", got, wantOnsets)
	}
}

func TestSchedulerValidation(t *testing.T) {
	engine := sim.NewEngine(1)
	targets, _ := makeTargets(engine, 2)
	cases := []Plan{
		{Outages: []Outage{{Node: 5, Start: 0, Duration: time.Second}}},
		{Outages: []Outage{{Node: 0, Start: 0, Duration: 0}}},
		{Churn: &ChurnModel{Fraction: 1.5, MTBF: time.Second, MTTR: time.Second}},
		{Churn: &ChurnModel{Fraction: 0.5}},
		{LinkFaults: []LinkFault{{From: 0, To: 1, Duration: time.Second, DropProb: 2}}},
		{LinkFaults: []LinkFault{{From: 0, To: 1, Duration: 0, DropProb: 0.5}}},
		{Partitions: []Partition{{Duration: time.Second, SideA: []int{9}}}},
	}
	for i, p := range cases {
		if _, err := NewScheduler(engine, 1, p, targets, time.Minute); err == nil {
			t.Fatalf("case %d: invalid plan accepted", i)
		}
	}
}

// TestCompileRejectsOutOfRangeLinkFaults: a link fault naming a node index
// the run does not have must fail at compile time — with an error naming
// the offending event — instead of silently never matching at execution.
func TestCompileRejectsOutOfRangeLinkFaults(t *testing.T) {
	cases := []struct {
		plan Plan
		want []string // substrings the error must carry to name the event
	}{
		{
			Plan{LinkFaults: []LinkFault{
				{From: 0, To: 1, Start: time.Second, Duration: time.Second, DropProb: 0.5},
				{From: 7, To: 1, Start: 2 * time.Second, Duration: time.Second, DropProb: 0.5},
			}},
			[]string{"link fault 1", "from 7", "out of range [0, 3)"},
		},
		{
			Plan{LinkFaults: []LinkFault{{From: 0, To: 3, Duration: time.Second}}},
			[]string{"link fault 0", "to 3", "out of range [0, 3)"},
		},
		{
			Plan{LinkFaults: []LinkFault{{From: -2, To: 0, Duration: time.Second}}},
			[]string{"link fault 0", "out of range"},
		},
		{
			Plan{Outages: []Outage{
				{Node: 0, Start: 0, Duration: time.Second},
				{Node: 9, Start: 5 * time.Second, Duration: time.Second},
			}},
			[]string{"outage 1", "node 9", "out of range [0, 3)"},
		},
		{
			Plan{Partitions: []Partition{{Start: time.Second, Duration: time.Second, SideA: []int{0, 4}}}},
			[]string{"partition 0", "node 4", "out of range [0, 3)"},
		},
	}
	for i, c := range cases {
		_, err := Compile(c.plan, 1, 3, time.Minute)
		if err == nil {
			t.Fatalf("case %d: out-of-range plan accepted", i)
		}
		for _, sub := range c.want {
			if !strings.Contains(err.Error(), sub) {
				t.Fatalf("case %d: error %q does not name the offending event (missing %q)", i, err, sub)
			}
		}
	}
	// Wildcards stay legal: -1 matches every node.
	ok := Plan{LinkFaults: []LinkFault{{From: -1, To: -1, Start: 0, Duration: time.Second, DropProb: 1}}}
	if _, err := Compile(ok, 1, 3, time.Minute); err != nil {
		t.Fatalf("wildcard link fault rejected: %v", err)
	}
}

func TestLoadPlanScript(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	script := `{
	  "churn": {"fraction": 0.1, "mtbf_s": 90, "mttr_s": 15, "start_s": 100},
	  "outages": [{"node": 3, "start_s": 150, "duration_s": 30}],
	  "links": [{"from": 1, "to": 4, "start_s": 200, "duration_s": 20,
	             "drop_prob": 0.8, "attenuation_db": 6, "symmetric": true}],
	  "partitions": [{"start_s": 260, "duration_s": 40, "side_a": [0, 1, 2]}]
	}`
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Churn == nil || p.Churn.Fraction != 0.1 || p.Churn.MTBF != 90*time.Second {
		t.Fatalf("churn = %+v", p.Churn)
	}
	if len(p.Outages) != 1 || p.Outages[0].Node != 3 || p.Outages[0].Start != 150*time.Second {
		t.Fatalf("outages = %+v", p.Outages)
	}
	if len(p.LinkFaults) != 1 || !p.LinkFaults[0].Symmetric || p.LinkFaults[0].DropProb != 0.8 {
		t.Fatalf("links = %+v", p.LinkFaults)
	}
	if len(p.Partitions) != 1 || len(p.Partitions[0].SideA) != 3 {
		t.Fatalf("partitions = %+v", p.Partitions)
	}
	if p.Empty() {
		t.Fatal("loaded plan reports Empty")
	}

	// Unknown fields are typos, not extensions.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"outages": [{"node": 0, "start": 1, "duration_s": 2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlan(bad); err == nil {
		t.Fatal("script with unknown field accepted")
	}
}

func TestCompileEtherRestarts(t *testing.T) {
	plan := Plan{EtherRestarts: []EtherRestart{
		{Start: 20 * time.Second, Duration: 3 * time.Second},
	}}
	c, err := Compile(plan, 1, 4, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var down, up *Event
	for i, ev := range c.Timeline() {
		switch ev.Kind {
		case EventEtherDown:
			down = &c.Timeline()[i]
		case EventEtherUp:
			up = &c.Timeline()[i]
		}
	}
	if down == nil || up == nil {
		t.Fatalf("timeline missing ether events: %v", c.Timeline())
	}
	if down.At != 20*time.Second || down.Node != -1 {
		t.Fatalf("ether-down = %+v, want t=20s node=-1", down)
	}
	if up.At != 23*time.Second || up.Node != -1 {
		t.Fatalf("ether-up = %+v, want t=23s node=-1", up)
	}
	wantWindows := []stats.Window{{Start: 20 * time.Second, End: 23 * time.Second}}
	if got := c.Windows(); !reflect.DeepEqual(got, wantWindows) {
		t.Fatalf("Windows() = %v, want %v", got, wantWindows)
	}
	if got := c.Onsets(); !reflect.DeepEqual(got, []time.Duration{20 * time.Second}) {
		t.Fatalf("Onsets() = %v", got)
	}

	// A restart with no down window is a script bug.
	bad := Plan{EtherRestarts: []EtherRestart{{Start: time.Second}}}
	if _, err := Compile(bad, 1, 4, time.Minute); err == nil {
		t.Fatal("zero-duration ether restart accepted")
	}
}

func TestLoadPlanEtherRestarts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ether.json")
	script := `{"ether_restarts": [{"start_s": 320, "down_s": 5}]}`
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.EtherRestarts) != 1 {
		t.Fatalf("ether restarts = %+v", p.EtherRestarts)
	}
	if er := p.EtherRestarts[0]; er.Start != 320*time.Second || er.Duration != 5*time.Second {
		t.Fatalf("restart = %+v, want start 320s duration 5s", er)
	}
	if p.Empty() {
		t.Fatal("ether-restart-only plan reports Empty")
	}
}

// robustnessScript is the example fault script of docs/ROBUSTNESS.md.
const robustnessScript = `{
  "churn": {"fraction": 0.1, "mtbf_s": 90, "mttr_s": 15, "start_s": 100},
  "outages": [{"node": 3, "start_s": 150, "duration_s": 30}],
  "links": [{"from": 1, "to": 4, "start_s": 200, "duration_s": 20,
             "drop_prob": 0.8, "attenuation_db": 6, "symmetric": true}],
  "partitions": [{"start_s": 260, "duration_s": 40, "side_a": [0, 1, 2]}]
}`

// badTimeScripts hold a fault time that is negative or does not fit a
// time.Duration, each with the error it must get from ParsePlan: the JSON
// key, then the reason.
var badTimeScripts = []struct{ script, want string }{
	// 1e12 s used to wrap to an outage about 292 years in the past that
	// fired and healed at t = 0.
	{`{"outages":[{"node":0,"start_s":1e12,"duration_s":5}]}`, "outages[0].start_s: 1e+12 s overflows time.Duration"},
	{`{"outages":[{"node":0,"start_s":-5,"duration_s":5}]}`, "outages[0].start_s: -5 is negative"},
	// The wrapped MTBF used to be rejected as "requires positive MTBF".
	{`{"churn":{"fraction":0.5,"mtbf_s":1e12,"mttr_s":5}}`, "churn.mtbf_s: 1e+12 s overflows time.Duration"},
	{`{"churn":{"fraction":0.5,"mtbf_s":60,"mttr_s":5,"end_s":-1}}`, "churn.end_s: -1 is negative"},
	{`{"links":[{"from":0,"to":1,"start_s":1,"duration_s":-2,"drop_prob":1}]}`, "links[0].duration_s: -2 is negative"},
	{`{"partitions":[{"start_s":1,"duration_s":1e10,"side_a":[0]}]}`, "partitions[0].duration_s: 1e+10 s overflows time.Duration"},
	{`{"ether_restarts":[{"start_s":-0.5,"down_s":1}]}`, "ether_restarts[0].start_s: -0.5 is negative"},
}

// TestPlanTimesInRange: ParsePlan rejects a fault time that is negative or
// overflows time.Duration, naming its JSON key, and Compile rejects a
// negative start, an end past the time.Duration range and a runaway churn
// model from Go callers, naming the fault.
func TestPlanTimesInRange(t *testing.T) {
	for _, row := range badTimeScripts {
		_, err := ParsePlan([]byte(row.script))
		if err == nil || err.Error() != "faults: "+row.want {
			t.Errorf("ParsePlan(%s) = %v, want faults: %s", row.script, err, row.want)
		}
	}
	day := 24 * time.Hour
	rows := []struct {
		plan Plan
		want string
	}{
		{Plan{Outages: []Outage{{Node: 0, Start: -time.Second, Duration: time.Second}}}, "outage 0 (node 0, start -1s): negative start"},
		{Plan{LinkFaults: []LinkFault{{From: 0, To: 1, Start: -time.Second, Duration: time.Second}}}, "link fault 0 (from 0, to 1, start -1s): negative start"},
		{Plan{Partitions: []Partition{{Start: -time.Second, Duration: time.Second}}}, "partition 0 (start -1s): negative start"},
		{Plan{EtherRestarts: []EtherRestart{{Start: -time.Second, Duration: time.Second}}}, "ether restart 0 (start -1s): negative start"},
		{Plan{Outages: []Outage{{Node: 1, Start: math.MaxInt64 - time.Second, Duration: 2 * time.Second}}}, "end overflows time.Duration"},
		{Plan{Churn: &ChurnModel{Fraction: 0.5, MTBF: time.Minute, MTTR: time.Second, Start: -time.Second}}, "churn start -1s or end 0s negative"},
		{Plan{Churn: &ChurnModel{Fraction: 1, MTBF: time.Microsecond, MTTR: time.Microsecond}}, "outages, more than 100000"},
	}
	for i, row := range rows {
		_, err := Compile(row.plan, 1, 8, day)
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("row %d: Compile = %v, want an error containing %q", i, err, row.want)
		}
	}

	// A mean time past the int64 range once drawn (200 years × an
	// exponential draw) is capped at the horizon instead of wrapping to a
	// negative time.
	c, err := Compile(Plan{Churn: &ChurnModel{Fraction: 1, MTBF: 200 * 365 * day, MTTR: time.Second}}, 1, 64, day)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Timeline() {
		if e.At < 0 || e.At > day {
			t.Fatalf("event %+v outside [0, horizon]", e)
		}
	}
}

// FuzzParsePlan feeds bytes through ParsePlan and Compile (8 nodes, 1 h).
// Nothing may panic, and an accepted plan's schedule must be well formed: a
// sorted timeline of non-negative times in which every onset is followed by
// its clear event, sorted disjoint windows, sorted unique onsets, and a
// fault active at the start of every window. The seed corpus is the
// docs/ROBUSTNESS.md example script and the rows of badTimeScripts.
func FuzzParsePlan(f *testing.F) {
	f.Add([]byte(robustnessScript))
	for _, row := range badTimeScripts {
		f.Add([]byte(row.script))
	}
	clears := map[string]string{EventNodeDown: EventNodeUp, EventLinkFault: EventLinkHeal, EventPartition: EventHeal, EventEtherDown: EventEtherUp}
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := ParsePlan(data)
		if err != nil {
			return
		}
		c, err := Compile(plan, 1, 8, time.Hour)
		if err != nil {
			return
		}
		type key struct {
			kind string
			node int
		}
		open := map[key]int{} // onsets not yet cleared, by clear kind
		tl := c.Timeline()
		for i, e := range tl {
			if e.At < 0 || i > 0 && e.At < tl[i-1].At {
				t.Fatalf("timeline out of order or negative at %d: %v", i, tl)
			}
			if clear, ok := clears[e.Kind]; ok {
				open[key{clear, e.Node}]++
			} else if open[key{e.Kind, e.Node}]--; open[key{e.Kind, e.Node}] < 0 {
				t.Fatalf("%+v clears no onset: %v", e, tl)
			}
		}
		for k, n := range open {
			if n != 0 {
				t.Fatalf("%d onsets never get their %s (node %d): %v", n, k.kind, k.node, tl)
			}
		}
		ws := c.Windows()
		for i, w := range ws {
			if w.Start >= w.End || i > 0 && w.Start <= ws[i-1].End {
				t.Fatalf("windows not sorted and disjoint: %v", ws)
			}
			if c.ActiveFaults(w.Start) < 1 {
				t.Fatalf("no fault active at the start of window %v", w)
			}
		}
		on := c.Onsets()
		for i := 1; i < len(on); i++ {
			if on[i] <= on[i-1] {
				t.Fatalf("onsets not sorted and unique: %v", on)
			}
		}
	})
}
