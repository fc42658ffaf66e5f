package core

import (
	"strings"
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

// TestStageAuxRejectsDomains checks the loud failure of an Aux reading
// on a domained kernel: the counter moves on other domains' worker
// threads mid-window, so Run refuses before spawning anything, while
// the same runner without Aux runs.
func TestStageAuxRejectsDomains(t *testing.T) {
	for _, withAux := range []bool{true, false} {
		k := sim.New(1)
		cl := cluster.New(k, cluster.DefaultConfig(2))
		cfg := shard.DefaultConfig(1)
		cfg.Domains = 2
		fsys := shard.New(k, "meta", cfg)
		r := &StageRunner{
			Cluster:  cl,
			FS:       fsys,
			Probes:   2,
			Interval: 25 * time.Millisecond,
			Think:    time.Millisecond,
			Label:    "aux",
			Stages:   []Stage{{Name: "a", Duration: 50 * time.Millisecond}},
		}
		if withAux {
			r.Aux = func() int64 {
				ops, _, _ := fsys.AggCounts()
				return ops
			}
		}
		set, err := r.Run()
		switch {
		case withAux && (err == nil || !strings.Contains(err.Error(), "Aux")):
			t.Errorf("Aux on a domained kernel: err %v, want an error naming Aux", err)
		case !withAux && (err != nil || len(set.Measurements) != 1):
			t.Errorf("no Aux on a domained kernel: err %v, want one measurement", err)
		}
	}
}
