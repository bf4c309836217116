package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/mobility"
	"meshcast/internal/stats"
)

// plainHealth and plainMobility drop the String methods, so %+v prints every
// field at full precision.
type (
	plainHealth   stats.GroupHealth
	plainMobility stats.GroupMobility
)

// formatDisruption renders everything the fault and motion read-outs report:
// the outage count, every health line with its repair latencies in full, and
// every mobility field and line.
func formatDisruption(res *RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "faulted=%d\n", res.Faulted)
	for _, g := range res.Health {
		fmt.Fprintf(&b, "health %v\n", g)
		fmt.Fprintf(&b, "  %+v\n", plainHealth(g))
	}
	if m := res.Mobility; m != nil {
		fmt.Fprintf(&b, "mobility model=%s max_speed=%.3f moves=%d link_breaks=%d link_forms=%d break_rate=%.9f\n",
			m.Model, m.MaxSpeedMps, m.Moves, m.LinkBreaks, m.LinkForms, m.BreakRatePerSec)
		for _, g := range m.Groups {
			fmt.Fprintf(&b, "mobility %v\n", g)
			fmt.Fprintf(&b, "  %+v\n", plainMobility(g))
		}
	}
	return b.String()
}

// TestGoldenDisruption pins the fault and motion read-outs, which no other
// golden prints: the scripted crash of each protocol, a 25 % churn run, a
// waypoint run, and churn and waypoint together. The expected text is
// disruptionGolden below.
func TestGoldenDisruption(t *testing.T) {
	churn := func(cfg ScenarioConfig) ScenarioConfig {
		cfg.Faults = &faults.Plan{Churn: &faults.ChurnModel{
			Fraction: 0.25, MTBF: 20 * time.Second, MTTR: 5 * time.Second, Start: cfg.TrafficStart,
		}}
		return cfg
	}
	waypoint := func(cfg ScenarioConfig) ScenarioConfig {
		cfg.Mobility = &mobility.Config{Model: mobility.ModelWaypoint, MaxSpeedMps: 10, Start: cfg.TrafficStart}
		return cfg
	}
	longer := func(cfg ScenarioConfig) ScenarioConfig {
		cfg.Duration = 60 * time.Second
		return cfg
	}
	for _, run := range []struct {
		name string
		cfg  ScenarioConfig
	}{
		{"crash_odmrp", crashRestartScenario(t, "odmrp")},
		{"crash_mcst", crashRestartScenario(t, "mcst")},
		{"churn", churn(longer(goldenScenario(t)))},
		{"waypoint", waypoint(longer(goldenScenario(t)))},
		{"churn_waypoint", churn(waypoint(longer(goldenScenario(t))))},
	} {
		t.Run(run.name, func(t *testing.T) {
			res, err := RunScenario(run.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := formatDisruption(res), disruptionGolden[run.name]; got != want {
				t.Fatalf("read-outs drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// disruptionGolden was generated at the parent of the one-tracker refactor
// (commit 8d29b62, the two-tracker code) and must not be edited to follow a
// change in the trackers. It lives here rather than in testdata so that the
// testdata directory stays byte-identical across that refactor.
var disruptionGolden = map[string]string{
	"crash_odmrp": "faulted=2\n" +
		"health group g1: steady PDR 0.511, outage PDR 0.665, repairs 2 (mean 0.032s, max 0.059s), availability 1.0000\n" +
		"  {Group:g1 OutagePDR:0.6653846153846154 SteadyPDR:0.5108108108108108 SentInWindows:2860 SentOutside:1110 RepairLatencies:[4.078356ms 59.146466ms] MeanRepair:31.612411ms MaxRepair:59.146466ms Availability:1}\n" +
		"health group g2: steady PDR 0.642, outage PDR 0.646, repairs 2 (mean 0.052s, max 0.054s), availability 1.0000\n" +
		"  {Group:g2 OutagePDR:0.6455607476635514 SteadyPDR:0.6415929203539823 SentInWindows:4280 SentOutside:1130 RepairLatencies:[49.730045ms 53.650342ms] MeanRepair:51.690193ms MaxRepair:53.650342ms Availability:1}\n",
	"crash_mcst": "faulted=2\n" +
		"health group g1: steady PDR 0.475, outage PDR 0.312, repairs 2 (mean 0.063s, max 0.066s), availability 1.0000\n" +
		"  {Group:g1 OutagePDR:0.31223776223776223 SteadyPDR:0.47477477477477475 SentInWindows:2860 SentOutside:1110 RepairLatencies:[66.081104ms 59.777246ms] MeanRepair:62.929175ms MaxRepair:66.081104ms Availability:1}\n" +
		"health group g2: steady PDR 0.635, outage PDR 0.633, repairs 2 (mean 0.027s, max 0.053s), availability 1.0000\n" +
		"  {Group:g2 OutagePDR:0.633177570093458 SteadyPDR:0.6345132743362832 SentInWindows:4280 SentOutside:1130 RepairLatencies:[52.986184ms 657.193µs] MeanRepair:26.821688ms MaxRepair:52.986184ms Availability:1}\n",
	"churn": "faulted=23\n" +
		"health group g1: steady PDR 0.673, outage PDR 0.635, repairs 23 (mean 0.471s, max 3.544s), availability 0.9188\n" +
		"  {Group:g1 OutagePDR:0.6345991561181434 SteadyPDR:0.67265625 SentInWindows:7110 SentOutside:1280 RepairLatencies:[29.862965ms 15.414093ms 3.544067057s 2.112927196s 39.560365ms 21.917254ms 9.857937ms 5.247196ms 2.421047714s 2.388490914s 8.8143ms 136.169699ms 2.363133ms 20.472097ms 2.098198ms 20.881197ms 7.902045ms 4.728464ms 24.089827ms 17.459313ms 1.693958ms 2.008234ms 5.807719ms] MeanRepair:471.429603ms MaxRepair:3.544067057s Availability:0.9188345858015683}\n" +
		"health group g2: steady PDR 0.656, outage PDR 0.725, repairs 23 (mean 0.119s, max 2.587s), availability 0.9681\n" +
		"  {Group:g2 OutagePDR:0.7254193548387097 SteadyPDR:0.65625 SentInWindows:7750 SentOutside:1280 RepairLatencies:[2.587165306s 906.826µs 2.583864ms 4.156167ms 13.541524ms 1.150509ms 1.084865ms 11.620262ms 3.609938ms 16.61003ms 3.383677ms 6.847425ms 1.524246ms 3.012825ms 13.093159ms 381.11µs 5.174916ms 1.841169ms 1.69278ms 907.902µs 23.373514ms 20.957464ms 4.934852ms] MeanRepair:118.676275ms MaxRepair:2.587165306s Availability:0.9680703591547517}\n",
	"waypoint": "faulted=0\n" +
		"mobility model=waypoint max_speed=10.000 moves=5000 link_breaks=145 link_forms=228 break_rate=2.900000000\n" +
		"mobility group g1: motion PDR 0.766, static PDR 0.000, repairs 74 (mean 0.012s, max 0.044s), reconvergences 0 (mean 0.000s)\n" +
		"  {Group:g1 MotionPDR:0.7659305993690851 StaticPDR:0 SentInMotion:9510 SentStatic:0 Repairs:74 MeanRepair:11.909806ms MaxRepair:43.823979ms Reconvergences:0 MeanReconvergence:0s MaxReconvergence:0s}\n" +
		"mobility group g2: motion PDR 0.789, static PDR 0.000, repairs 74 (mean 0.009s, max 0.049s), reconvergences 0 (mean 0.000s)\n" +
		"  {Group:g2 MotionPDR:0.7888655462184874 StaticPDR:0 SentInMotion:9520 SentStatic:0 Repairs:74 MeanRepair:8.660674ms MaxRepair:48.540658ms Reconvergences:0 MeanReconvergence:0s MaxReconvergence:0s}\n",
	"churn_waypoint": "faulted=23\n" +
		"health group g1: steady PDR 0.772, outage PDR 0.794, repairs 23 (mean 0.357s, max 3.544s), availability 0.9203\n" +
		"  {Group:g1 OutagePDR:0.7939521800281294 SteadyPDR:0.771875 SentInWindows:7110 SentOutside:1280 RepairLatencies:[29.802945ms 13.136528ms 3.544049919s 2.112910058s 2.286754ms 11.601461ms 9.437756ms 2.105797ms 2.069718ms 2.38771668s 3.854266ms 3.792251ms 4.570725ms 19.756329ms 1.883214ms 6.658362ms 275.385µs 3.531536ms 24.436622ms 3.754291ms 4.918503ms 3.304285ms 8.890609ms] MeanRepair:356.727999ms MaxRepair:3.544049919s Availability:0.9203145091584923}\n" +
		"health group g2: steady PDR 0.645, outage PDR 0.685, repairs 23 (mean 0.127s, max 2.587s), availability 0.9677\n" +
		"  {Group:g2 OutagePDR:0.6849032258064516 SteadyPDR:0.64453125 SentInWindows:7750 SentOutside:1280 RepairLatencies:[2.587165227s 45.058762ms 2.583747ms 4.06563ms 44.465141ms 5.895011ms 24.351698ms 14.860978ms 11.442194ms 13.920552ms 11.774396ms 6.807126ms 7.717591ms 2.97242ms 9.923925ms 1.344059ms 21.218511ms 29.055824ms 52.097235ms 1.046594ms 22.992924ms 6.231561ms 867.076µs] MeanRepair:127.298181ms MaxRepair:2.587165227s Availability:0.9676737659547257}\n" +
		"mobility model=waypoint max_speed=10.000 moves=5000 link_breaks=145 link_forms=228 break_rate=2.900000000\n" +
		"mobility group g1: motion PDR 0.791, static PDR 0.000, repairs 74 (mean 0.126s, max 2.289s), reconvergences 2 (mean 1.952s)\n" +
		"  {Group:g1 MotionPDR:0.7905840286054827 StaticPDR:0 SentInMotion:8390 SentStatic:0 Repairs:74 MeanRepair:126.090817ms MaxRepair:2.289181373s Reconvergences:2 MeanReconvergence:1.952141627s MaxReconvergence:2.289181373s}\n" +
		"mobility group g2: motion PDR 0.679, static PDR 0.000, repairs 74 (mean 0.053s, max 2.352s), reconvergences 1 (mean 2.352s)\n" +
		"  {Group:g2 MotionPDR:0.6791805094130675 StaticPDR:0 SentInMotion:9030 SentStatic:0 Repairs:74 MeanRepair:53.422964ms MaxRepair:2.352193937s Reconvergences:1 MeanReconvergence:2.352193937s MaxReconvergence:2.352193937s}\n",
}
