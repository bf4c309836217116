// Videoconf models the paper's motivating workload (§1): collaborative
// applications — here, three simultaneous video conferences — multicast over
// a campus mesh network. It runs the same workload under the original ODMRP
// and under ODMRP_SPP and reports how much of each conference's traffic the
// participants actually receive.
//
// Run with:
//
//	go run ./examples/videoconf [-nodes 35] [-seconds 120]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"meshcast"
)

// conference describes one multicast session: a speaker and listeners.
type conference struct {
	name      string
	group     meshcast.GroupID
	speaker   int // node index
	listeners []int
}

func main() {
	nodes := flag.Int("nodes", 35, "mesh size")
	seconds := flag.Int("seconds", 120, "traffic seconds")
	flag.Parse()
	if err := run(*nodes, *seconds); err != nil {
		log.Fatal(err)
	}
}

func run(nodeCount, seconds int) error {
	conferences := []conference{
		{"standup", 1, 0, []int{5, 11, 17}},
		{"lecture", 2, 8, []int{3, 14, 20, 26, 30}},
		{"design-review", 3, 22, []int{2, 9, 28}},
	}

	// Participants are node indices, so the mesh must reach the highest.
	minNodes := 0
	for _, c := range conferences {
		for _, n := range append([]int{c.speaker}, c.listeners...) {
			minNodes = max(minNodes, n+1)
		}
	}
	if nodeCount < minNodes {
		return fmt.Errorf("-nodes %d: the conferences need at least %d nodes", nodeCount, minNodes)
	}

	fmt.Printf("campus mesh: %d nodes, 3 conferences, %d s of traffic\n\n", nodeCount, seconds)
	for _, m := range []meshcast.Metric{meshcast.MinHop, meshcast.SPP} {
		label := "original ODMRP"
		if m != meshcast.MinHop {
			label = "ODMRP_" + m.String()
		}
		summary, perGroup, perMember, err := runOnce(m, nodeCount, seconds, conferences)
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n", label)
		fmt.Printf("  overall delivery %.1f%%, mean delay %.1f ms, fairness %.2f\n",
			100*summary.PDR, 1000*summary.MeanDelaySeconds, summary.Fairness)
		for i, c := range conferences {
			g := perGroup[i]
			fmt.Printf("  %-14s %.1f%% delivered to %d listeners\n", c.name+":", 100*g.PDR, len(c.listeners))
		}
		worst := meshcast.MemberPDR{PDR: 2}
		for _, pm := range perMember {
			if pm.PDR < worst.PDR {
				worst = pm
			}
		}
		fmt.Printf("  worst participant: node %v at %.1f%%\n\n", worst.Member, 100*worst.PDR)
	}
	fmt.Println("The link-quality metric lifts every conference's delivery by routing")
	fmt.Println("around fading-degraded long links, at the cost of extra hops.")
	return nil
}

func runOnce(m meshcast.Metric, nodeCount, seconds int, conferences []conference) (meshcast.Summary, []meshcast.Summary, []meshcast.MemberPDR, error) {
	s := meshcast.NewSimulation(meshcast.SimulationConfig{Seed: 7, Metric: m})
	ids, err := s.AddRandomNodes(nodeCount, 900)
	if err != nil {
		return meshcast.Summary{}, nil, nil, err
	}
	warmup := 60 * time.Second
	for _, c := range conferences {
		for _, l := range c.listeners {
			if err := s.Join(ids[l], c.group); err != nil {
				return meshcast.Summary{}, nil, nil, err
			}
		}
		if err := s.AddSource(ids[c.speaker], c.group, warmup); err != nil {
			return meshcast.Summary{}, nil, nil, err
		}
	}
	s.Run(warmup + time.Duration(seconds)*time.Second)
	perGroup := make([]meshcast.Summary, len(conferences))
	for i, c := range conferences {
		perGroup[i] = s.GroupSummary(c.group)
	}
	return s.Summary(), perGroup, s.PerMember(), nil
}
