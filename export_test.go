package quasaq

import "quasaq/internal/core"

// dbCluster exposes the underlying cluster to integration tests that need
// to drive the internal baseline services against a facade-built database.
func dbCluster(db *DB) *core.Cluster { return db.w.Cluster }
