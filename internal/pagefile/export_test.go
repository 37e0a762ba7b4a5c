package pagefile

// LiveChunks reports the mapping chunks every FileStore in the process holds,
// for the external tests that drive a store through the engine.
func LiveChunks() int64 { return liveChunks.Load() }
