package core

// SetShardHook installs (or, with nil, removes) the stage-1 shard hook.
// Tests use it to inject cancellation and panics into shard workers
// mid-run; see testShardHook.
func SetShardHook(f func(shard int)) { testShardHook = f }
