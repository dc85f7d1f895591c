package musa

// MaxShardReplyPerPoint is the per-point /shard reply bound, for the
// fleet tests of package musa_test.
const MaxShardReplyPerPoint = maxShardReplyPerPoint
