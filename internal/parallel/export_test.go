package parallel

// SetPartitionStart installs f to run as each partition worker starts
// (nil removes it).
func SetPartitionStart(f func(part int)) { partitionStart = f }
