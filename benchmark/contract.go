package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// contractMetric is one metric entry of BENCHMARK.json.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is the part of BENCHMARK.json this program reads: the metric
// names it must emit and the regression bound of each end-to-end metric.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// bound returns the end-to-end metric's regression bound.
func (c *contract) bound(name string) (float64, bool) {
	for _, m := range c.EndToEnd {
		if m.Name == name {
			return m.Bound, true
		}
	}
	return 0, false
}

// layerUnit is the declared unit of a per-layer metric, if it is declared.
func layerUnit(name string) (string, bool) {
	for _, lm := range layerMetrics {
		if lm.name == name {
			return lm.unit, true
		}
	}
	return "", false
}
