package storage

// Test hooks for the external storage_test package, whose tests build
// pool-backed snapshots through storage/disk (which imports storage).
var (
	CheckBatchStatsParity = checkBatchStatsParity
	ParityLayouts         = parityLayouts
)

const ParityRPP = parityRPP
