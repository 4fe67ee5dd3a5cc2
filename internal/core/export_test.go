package core

// SetShardHook installs (or, with nil, removes) the stage-1 shard hook.
// Tests use it to inject cancellation and panics into shard workers
// mid-run; see testShardHook.
func SetShardHook(f func(shard int)) { testShardHook = f }

// The streaming verifier's window geometry: a window buffer's length,
// and the span a mid-stream window settles, after which the next
// window starts.
const (
	StreamWindow = streamWindow
	StreamSettle = streamSettle
)

// KeyEntries is how many entry points the delta configuration key
// encodes in stack arrays before it spills to the heap.
const KeyEntries = keyEntries
