package cluster

import (
	"context"

	"influmax/internal/graph"
)

// The external cluster_test package drives these unexported entry points.
var (
	NewShard           = newShard
	ReadShardSnapshot  = readShardSnapshot
	WriteShardSnapshot = writeShardSnapshot
)

// ServeQuery answers q as the router's front does.
func (rt *Router) ServeQuery(ctx context.Context, q RouterQuery, onSeed func(i int, v graph.Vertex, gain int64)) (*SelectResult, error) {
	return rt.serveQuery(ctx, q, onSeed)
}

// Sessions reports the shard's open session count.
func (sh *Shard) Sessions() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.sessions)
}
