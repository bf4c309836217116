// Command meshdump lists the frames a simulation put on the air — the
// simulator's tcpdump. It reads the span file `meshsim -spans` writes; every
// mac-tx span there is one transmitted frame, printed as one line in the span
// text form (trace.Span.String).
//
// Usage:
//
//	go run ./cmd/meshsim -metric spp -seconds 10 -spans run.jsonl
//	go run ./cmd/meshdump run.jsonl
//	go run ./cmd/meshdump -node 3 -kind JOIN_QUERY run.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
	"strings"

	"meshcast/internal/packet"
	"meshcast/internal/trace"
)

// validKinds lists every -kind value: the packet types a span can record, as
// packet.Type.String renders them.
var validKinds = func() []string {
	var out []string
	for k := packet.TypeData; k <= packet.TypeTreeJoin; k++ {
		out = append(out, k.String())
	}
	return out
}()

func main() {
	node := flag.Int("node", -1, "only show frames transmitted by this node (-1: every node)")
	kind := flag.String("kind", "", "only show this packet kind ("+strings.Join(validKinds, ", ")+")")
	stats := flag.Bool("stats", false, "print per-kind counts instead of individual frames")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: meshdump [-node N] [-kind K] [-stats] spans-file")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), *node, *kind, *stats); err != nil {
		log.Fatal(err)
	}
}

// checkKind validates a -kind filter value before any span is read, so a
// typo fails fast with the valid list instead of silently matching nothing.
func checkKind(kind string) error {
	if kind == "" {
		return nil
	}
	for _, k := range validKinds {
		if strings.EqualFold(kind, k) {
			return nil
		}
	}
	return fmt.Errorf("unknown -kind %q (valid: %s)", kind, strings.Join(validKinds, ", "))
}

// checkNode validates a -node filter value the same way: a node ID, or -1 for
// every node.
func checkNode(node int) error {
	if node < -1 || node > math.MaxUint16 {
		return fmt.Errorf("-node %d out of range (a node ID in [0, %d], or -1 for every node)", node, math.MaxUint16)
	}
	return nil
}

func run(w io.Writer, path string, node int, kind string, stats bool) error {
	if err := checkNode(node); err != nil {
		return err
	}
	if err := checkKind(kind); err != nil {
		return err
	}
	spans, err := trace.LoadSpans(path)
	if err != nil {
		return err
	}

	counts := map[string]int{}
	total := 0
	for _, s := range spans {
		if s.Kind != trace.SpanMACTx {
			continue
		}
		if node >= 0 && s.Node != packet.NodeID(node) {
			continue
		}
		pkt := s.PktKind.String()
		if kind != "" && !strings.EqualFold(pkt, kind) {
			continue
		}
		total++
		if stats {
			counts[pkt]++
			continue
		}
		fmt.Fprintln(w, s)
	}
	if stats {
		fmt.Fprintf(w, "%d frames\n", total)
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(w, "  %-12s %d\n", k, counts[k])
		}
	}
	return nil
}
