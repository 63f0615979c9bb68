package shard

import (
	"sync"
	"sync/atomic"
)

// Package-wide coordinator counters, monotonic since process start,
// rendered by the server's /metrics as cryowire_shard_* — the same
// pattern as sim's dedup stats. Atomics cover the scalar counters; the
// per-replica map takes a mutex because it is written once per HTTP
// request, far off any hot path.
type counters struct {
	dispatched    atomic.Uint64
	redispatched  atomic.Uint64
	httpRetries   atomic.Uint64
	mergedShards  atomic.Uint64
	mergedEntries atomic.Uint64

	mu       sync.Mutex
	replicas map[string]*replicaCounter
}

type replicaCounter struct {
	requests   uint64
	errors     uint64
	latencySum float64
}

var stats counters

// observeReplica records one HTTP request to a replica.
func (c *counters) observeReplica(base string, seconds float64, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.replicas == nil {
		c.replicas = make(map[string]*replicaCounter)
	}
	rc := c.replicas[base]
	if rc == nil {
		rc = &replicaCounter{}
		c.replicas[base] = rc
	}
	rc.requests++
	if failed {
		rc.errors++
	}
	rc.latencySum += seconds
}

// Stats is a snapshot of the coordinator counters.
type Stats struct {
	// Dispatched counts shards handed to an executor; Redispatched
	// counts shards handed back to a local executor after their first
	// executor failed (the journal checkpoint limits the rework to the
	// unjournaled tail).
	Dispatched   uint64
	Redispatched uint64
	// HTTPRetries counts retried HTTP attempts against replicas.
	HTTPRetries uint64
	// MergedShards counts shard journals merged; MergedEntries counts
	// journal entries carried through those merges.
	MergedShards  uint64
	MergedEntries uint64
	// Replicas is per-replica HTTP traffic, keyed by base URL; nil when
	// no remote dispatch has happened.
	Replicas map[string]ReplicaStats
}

// ReplicaStats summarizes the HTTP traffic to one replica.
type ReplicaStats struct {
	Requests          uint64
	Errors            uint64
	LatencySumSeconds float64
}

// ReadStats snapshots the package-wide counters.
func ReadStats() Stats {
	s := Stats{
		Dispatched:    stats.dispatched.Load(),
		Redispatched:  stats.redispatched.Load(),
		HTTPRetries:   stats.httpRetries.Load(),
		MergedShards:  stats.mergedShards.Load(),
		MergedEntries: stats.mergedEntries.Load(),
	}
	stats.mu.Lock()
	if len(stats.replicas) > 0 {
		s.Replicas = make(map[string]ReplicaStats, len(stats.replicas))
		for k, v := range stats.replicas {
			s.Replicas[k] = ReplicaStats{Requests: v.requests, Errors: v.errors, LatencySumSeconds: v.latencySum}
		}
	}
	stats.mu.Unlock()
	return s
}
