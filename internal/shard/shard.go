// Package shard partitions a topology into resource-disjoint clusters for
// the sharded metro-scale slot solve (DESIGN.md §13).
//
// The P2-A congestion game couples devices only through shared resources:
// a server's compute capacity and a station's access/fronthaul links. Two
// devices that can never select the same station or reach the same server
// are independent — their best responses commute. The coupling structure
// is exactly the station–room graph: station k shares resources with
// station k' iff some chain of stations and rooms connects them (a room is
// shared whenever two stations' fronthauls reach it, and a station's
// access/fronthaul links are its own). Connected components of that
// bipartite graph are therefore resource-disjoint clusters, and a slot
// solve factorizes into per-cluster games plus a boundary set of devices
// covered by stations of more than one cluster.
//
// New computes the components with a union-find over stations and rooms
// and makes each component one shard, numbered in order of its lowest
// member (stations before rooms). The result is a pure function of the
// network's wiring — no RNG, no map iteration — so the same topology
// always yields the same partition, on every machine and at every pool
// size. The shard-package tests and the core shard×pool matrix tests
// enforce this.
package shard

import "eotora/internal/topology"

// Partition is a deterministic decomposition of a network's stations,
// rooms, and servers into resource-disjoint shards, one per connected
// component of the station–room graph.
type Partition struct {
	// Shards is the number of connected components, at least 1 for a
	// network with a station or a room.
	Shards int
	// StationShard maps station index → shard.
	StationShard []int32
	// ServerShard maps server index → shard (via the server's room).
	ServerShard []int32
}

// New computes the partition of net into its connected components. The
// network must be finalized (topology.Network.Finalize).
func New(net *topology.Network) Partition {
	stations := len(net.BaseStations)
	rooms := len(net.Rooms)

	// Union-find over stations [0, K) and rooms [K, K+M). Room IDs are
	// arbitrary ints; index them by position with a dense remap.
	roomIdx := make(map[int]int, rooms)
	for m := range net.Rooms {
		roomIdx[net.Rooms[m].ID] = m
	}
	parent := make([]int32, stations+rooms)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for k := range net.BaseStations {
		for _, room := range net.BaseStations[k].Rooms {
			ra, rb := find(int32(k)), find(int32(stations+roomIdx[room]))
			// Deterministic orientation: the smaller root wins, so every
			// component's root is its lowest member index.
			if ra < rb {
				parent[rb] = ra
			} else if rb < ra {
				parent[ra] = rb
			}
		}
	}

	// Number the components by first appearance over stations then rooms:
	// a member is its component's first exactly when it is the root, and
	// every other member comes after the root.
	comp := make([]int32, stations+rooms)
	shards := 0
	for i := range parent {
		if root := find(int32(i)); root != int32(i) {
			comp[i] = comp[root]
			continue
		}
		comp[i] = int32(shards)
		shards++
	}

	p := Partition{
		Shards:       shards,
		StationShard: comp[:stations:stations],
		ServerShard:  make([]int32, len(net.Servers)),
	}
	for n := range net.Servers {
		p.ServerShard[n] = comp[stations+roomIdx[net.Servers[n].Room]]
	}
	return p
}
