package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// Script is the JSON wire form of a Plan: times are expressed in seconds so
// scripts stay human-writable. Example:
//
//	{
//	  "churn": {"fraction": 0.1, "mtbf_s": 90, "mttr_s": 15, "start_s": 100},
//	  "outages": [{"node": 3, "start_s": 150, "duration_s": 30}],
//	  "links": [{"from": 1, "to": 4, "start_s": 200, "duration_s": 20,
//	             "drop_prob": 0.8, "attenuation_db": 6, "symmetric": true}],
//	  "partitions": [{"start_s": 260, "duration_s": 40, "side_a": [0, 1, 2]}],
//	  "ether_restarts": [{"start_s": 320, "down_s": 5}]
//	}
type Script struct {
	Churn         *ScriptChurn         `json:"churn,omitempty"`
	Outages       []ScriptOutage       `json:"outages,omitempty"`
	Links         []ScriptLinkFault    `json:"links,omitempty"`
	Partitions    []ScriptPartition    `json:"partitions,omitempty"`
	EtherRestarts []ScriptEtherRestart `json:"ether_restarts,omitempty"`
}

// ScriptChurn mirrors ChurnModel with second-valued times.
type ScriptChurn struct {
	Fraction float64 `json:"fraction"`
	MTBFS    float64 `json:"mtbf_s"`
	MTTRS    float64 `json:"mttr_s"`
	StartS   float64 `json:"start_s,omitempty"`
	EndS     float64 `json:"end_s,omitempty"`
}

// ScriptOutage mirrors Outage with second-valued times.
type ScriptOutage struct {
	Node      int     `json:"node"`
	StartS    float64 `json:"start_s"`
	DurationS float64 `json:"duration_s"`
}

// ScriptLinkFault mirrors LinkFault with second-valued times. Omitting an
// endpoint (zero value is a valid node) is expressed as -1, same as the Go
// API.
type ScriptLinkFault struct {
	From          int     `json:"from"`
	To            int     `json:"to"`
	StartS        float64 `json:"start_s"`
	DurationS     float64 `json:"duration_s"`
	DropProb      float64 `json:"drop_prob,omitempty"`
	AttenuationDB float64 `json:"attenuation_db,omitempty"`
	Symmetric     bool    `json:"symmetric,omitempty"`
}

// ScriptPartition mirrors Partition with second-valued times.
type ScriptPartition struct {
	StartS    float64 `json:"start_s"`
	DurationS float64 `json:"duration_s"`
	SideA     []int   `json:"side_a"`
}

// ScriptEtherRestart mirrors EtherRestart with second-valued times. It only
// affects the live emulation layer; the simulator ignores it.
type ScriptEtherRestart struct {
	StartS float64 `json:"start_s"`
	DownS  float64 `json:"down_s"`
}

// Plan converts the script to a Plan. A time that is negative or does not
// fit a time.Duration is an error naming its JSON key
// ("outages[0].start_s").
func (s Script) Plan() (Plan, error) {
	var err error
	seconds := func(v float64, key string, args ...any) time.Duration {
		switch {
		case err != nil:
		case v < 0:
			err = fmt.Errorf("faults: %s: %v is negative", fmt.Sprintf(key, args...), v)
		case v*float64(time.Second) >= math.MaxInt64:
			err = fmt.Errorf("faults: %s: %v s overflows time.Duration", fmt.Sprintf(key, args...), v)
		default:
			return time.Duration(v * float64(time.Second))
		}
		return 0
	}
	var p Plan
	if c := s.Churn; c != nil {
		p.Churn = &ChurnModel{
			Fraction: c.Fraction,
			MTBF:     seconds(c.MTBFS, "churn.mtbf_s"),
			MTTR:     seconds(c.MTTRS, "churn.mttr_s"),
			Start:    seconds(c.StartS, "churn.start_s"),
			End:      seconds(c.EndS, "churn.end_s"),
		}
	}
	for i, o := range s.Outages {
		p.Outages = append(p.Outages, Outage{
			Node:     o.Node,
			Start:    seconds(o.StartS, "outages[%d].start_s", i),
			Duration: seconds(o.DurationS, "outages[%d].duration_s", i),
		})
	}
	for i, l := range s.Links {
		p.LinkFaults = append(p.LinkFaults, LinkFault{
			From:          l.From,
			To:            l.To,
			Start:         seconds(l.StartS, "links[%d].start_s", i),
			Duration:      seconds(l.DurationS, "links[%d].duration_s", i),
			DropProb:      l.DropProb,
			AttenuationDB: l.AttenuationDB,
			Symmetric:     l.Symmetric,
		})
	}
	for i, pt := range s.Partitions {
		p.Partitions = append(p.Partitions, Partition{
			Start:    seconds(pt.StartS, "partitions[%d].start_s", i),
			Duration: seconds(pt.DurationS, "partitions[%d].duration_s", i),
			SideA:    pt.SideA,
		})
	}
	for i, er := range s.EtherRestarts {
		p.EtherRestarts = append(p.EtherRestarts, EtherRestart{
			Start:    seconds(er.StartS, "ether_restarts[%d].start_s", i),
			Duration: seconds(er.DownS, "ether_restarts[%d].down_s", i),
		})
	}
	if err != nil {
		return Plan{}, err
	}
	return p, nil
}

// LoadPlan reads a JSON fault script from path. Unknown fields are rejected
// so a typo ("duration" for "duration_s") fails loudly instead of silently
// injecting nothing.
func LoadPlan(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("faults: %w", err)
	}
	return ParsePlan(data)
}

// ParsePlan decodes a JSON fault script; see Script.Plan for its time rules.
func ParsePlan(data []byte) (Plan, error) {
	var s Script
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Plan{}, fmt.Errorf("faults: parse script: %w", err)
	}
	return s.Plan()
}
