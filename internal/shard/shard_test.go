package shard

import (
	"reflect"
	"testing"

	"eotora/internal/rng"
	"eotora/internal/topology"
)

func metroNet(t *testing.T, devices int) *topology.Network {
	t.Helper()
	net, err := topology.Generate(topology.MetroSpec(devices), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// Same topology → identical partition, call after call.
func TestPartitionDeterministic(t *testing.T) {
	net := metroNet(t, 50)
	a := New(net)
	for i := 0; i < 5; i++ {
		b := New(net)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("partition %d differs:\n%+v\n%+v", i, b, a)
		}
	}
	// And the same spec regenerated from the same seed partitions the same.
	c := New(metroNet(t, 50))
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("regenerated topology partitions differently:\n%+v\n%+v", c, a)
	}
}

// Stations that share a room (directly or transitively) must land in the
// same shard; servers follow their room's shard.
func TestPartitionRespectsAdjacency(t *testing.T) {
	net := metroNet(t, 50)
	p := New(net)
	roomShard := map[int]int32{}
	for k, bs := range net.BaseStations {
		for _, room := range bs.Rooms {
			if prev, ok := roomShard[room]; ok {
				if prev != p.StationShard[k] {
					t.Fatalf("station %d in shard %d but room %d already in shard %d",
						k, p.StationShard[k], room, prev)
				}
			} else {
				roomShard[room] = p.StationShard[k]
			}
		}
	}
	for n, srv := range net.Servers {
		if want, ok := roomShard[srv.Room]; ok && p.ServerShard[n] != want {
			t.Fatalf("server %d in shard %d, its room %d's stations in shard %d",
				n, p.ServerShard[n], srv.Room, want)
		}
	}
}

// On the metro spec every connected component of the station–room
// graph, found here by a breadth-first search independent of New's
// union-find, is its own shard: all of a component's stations and
// servers share one shard, and no two components share a shard. An
// umbrella topology (campus) is a single cluster.
func TestPartitionOneShardPerComponent(t *testing.T) {
	net := metroNet(t, 50)
	p := New(net)

	// Component labels over stations [0, K) and room positions [K, K+M).
	stations := len(net.BaseStations)
	roomPos := map[int]int{}
	for m, room := range net.Rooms {
		roomPos[room.ID] = stations + m
	}
	adj := make([][]int, stations+len(net.Rooms))
	for k, bs := range net.BaseStations {
		for _, room := range bs.Rooms {
			r := roomPos[room]
			adj[k] = append(adj[k], r)
			adj[r] = append(adj[r], k)
		}
	}
	label := make([]int, len(adj))
	for i := range label {
		label[i] = -1
	}
	components := 0
	for start := range adj {
		if label[start] >= 0 {
			continue
		}
		label[start] = components
		queue := []int{start}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if label[w] < 0 {
					label[w] = components
					queue = append(queue, w)
				}
			}
		}
		components++
	}
	if components < 8 {
		t.Fatalf("metro spec yields %d components, want a decomposable topology (≥ 8)", components)
	}
	if p.Shards != components {
		t.Fatalf("Shards = %d, want one per component (%d)", p.Shards, components)
	}

	shardOf := make([]int32, components)
	for c := range shardOf {
		shardOf[c] = -1
	}
	claim := func(what string, idx, c int, sh int32) {
		if sh < 0 || int(sh) >= p.Shards {
			t.Fatalf("%s %d in shard %d, outside [0, %d)", what, idx, sh, p.Shards)
		}
		if shardOf[c] < 0 {
			shardOf[c] = sh
		} else if shardOf[c] != sh {
			t.Fatalf("%s %d in shard %d, its component %d in shard %d", what, idx, sh, c, shardOf[c])
		}
	}
	for k := range net.BaseStations {
		claim("station", k, label[k], p.StationShard[k])
	}
	for n, srv := range net.Servers {
		claim("server", n, label[roomPos[srv.Room]], p.ServerShard[n])
	}
	owner := map[int32]int{}
	for c, sh := range shardOf {
		if sh < 0 {
			continue // a room with no station and no server
		}
		if prev, ok := owner[sh]; ok {
			t.Fatalf("components %d and %d share shard %d", prev, c, sh)
		}
		owner[sh] = c
	}

	campus, err := topology.Generate(topology.CampusSpec(20), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if pc := New(campus); pc.Shards != 1 {
		t.Fatalf("campus topology: Shards = %d, want 1 (wireless fronthaul couples every station)", pc.Shards)
	}
}
