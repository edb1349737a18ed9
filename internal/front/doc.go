// Package front is the one HTTP front of both seed-serving processes:
// immserve (internal/server, over a resident sketch) and immrouter
// (internal/cluster, over a shard fleet). It owns admission and the
// drain, /healthz and /v1/metrics, the error envelope and status map, the
// /v1/seeds and /v1/spread schema with its validation, and NDJSON
// streaming; a Backend answers the validated queries. It sits below both
// backends (server imports cluster). DESIGN.md §20 is the spec.
package front
