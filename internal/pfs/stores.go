package pfs

import "repro/internal/iosched"

// QueueStore sends every request to one device through its scheduler
// queue, unchanged. Over a hard disk behind CFQ it is the paper's stock
// storage stack; over an SSD behind Noop it is Figure 10's "SSD-only"
// configuration, where data lands at its file location on the SSD (so,
// unlike iBridge's log, concurrent writes from many processes are
// scattered and pay the SSD's random-write penalty).
type QueueStore struct {
	queue *iosched.Queue
}

// NewQueueStore wraps a scheduler queue as a Store.
func NewQueueStore(q *iosched.Queue) *QueueStore { return &QueueStore{queue: q} }

// Start implements Store.
func (s *QueueStore) Start(r *IORequest, done func()) {
	s.queue.Start(r.Request(), done)
}

// Flush implements Store: the stack is write-through.
func (s *QueueStore) Flush(done func()) { done() }

var _ Store = (*QueueStore)(nil)
