package ospf

import (
	"reflect"
	"testing"

	"repro/internal/detsort"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestBootstrapSharedGraphMatchesPerRouter checks that building the
// bootstrap graph once per domain changes nothing: after Bootstrap every
// router's shortest-path state — adjacency rows, distances and first-hop
// sets — equals what its own buildGraph and runBFS produce from its LSDB,
// and each router owns its row map, so a row replaced on one router (the
// incremental path's only kind of graph edit) leaves the others alone.
func TestBootstrapSharedGraphMatchesPerRouter(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(int) (*topo.Topology, error)
		ports int
	}{
		{"fattree4", topo.FatTree, 4},
		{"f2tree8", topo.F2Tree, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp, err := tc.build(tc.ports)
			if err != nil {
				t.Fatal(err)
			}
			dom := NewDomain(mustNetwork(t, sim.New(7), tp), Config{})
			if err := dom.Bootstrap(); err != nil {
				t.Fatal(err)
			}
			ids := detsort.Keys(dom.instances)
			for _, id := range ids {
				inst := dom.instances[id]
				graph := inst.buildGraph()
				dist, nh := inst.runBFS(graph)
				if !reflect.DeepEqual(inst.spf.graph, graph) {
					t.Fatalf("router %s: bootstrap graph differs from its own buildGraph", tp.Node(id).Name)
				}
				if !reflect.DeepEqual(inst.spf.dist, dist) || !reflect.DeepEqual(inst.spf.nh, nh) {
					t.Fatalf("router %s: bootstrap BFS state differs from its own runBFS", tp.Node(id).Name)
				}
				if !inst.spf.valid || inst.spf.fullRuns != 1 || len(inst.spf.dirty) != 0 {
					t.Fatalf("router %s: spf state valid=%v fullRuns=%d dirty=%d, want a clean first full run",
						tp.Node(id).Name, inst.spf.valid, inst.spf.fullRuns, len(inst.spf.dirty))
				}
			}
			first, second := dom.instances[ids[0]], dom.instances[ids[1]]
			want := second.buildGraph()
			setRow(first.spf.graph, ids[1], nil)
			if !reflect.DeepEqual(second.spf.graph, want) {
				t.Fatal("replacing a row on one router changed another router's graph")
			}
		})
	}
}
