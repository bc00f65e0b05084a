package server

import "sync"

// jobQueue is the bounded admission queue.  tryPush fails (rather than
// blocks) when the queue is full — the server turns that into a 429 with
// Retry-After, the backpressure contract of the service.  Workers block in
// pop; popCompatible additionally lets a worker that just claimed a small
// job drain every queued job of the same P and Settings, which is how compatible
// jobs end up in one shared world run.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*job
	depth  int
	closed bool
}

func newJobQueue(depth int) *jobQueue {
	q := &jobQueue{depth: depth}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// tryPush enqueues j, reporting false when the queue is full or closed.
func (q *jobQueue) tryPush(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.items) >= q.depth {
		return false
	}
	q.items = append(q.items, j)
	q.cond.Signal()
	return true
}

// pop blocks until a job is available (FIFO) or the queue closes.
func (q *jobQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	j := q.items[0]
	q.items = q.items[1:]
	return j, true
}

// popCompatible removes and returns up to max queued jobs for which match
// reports true, preserving FIFO order among them.
func (q *jobQueue) popCompatible(match func(*job) bool, max int) []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if max <= 0 {
		return nil
	}
	var got []*job
	rest := q.items[:0]
	for _, j := range q.items {
		if len(got) < max && match(j) {
			got = append(got, j)
		} else {
			rest = append(rest, j)
		}
	}
	// Clear the tail so dequeued jobs don't linger in the backing array.
	for i := len(rest); i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = rest
	return got
}

func (q *jobQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close wakes every blocked worker; pending jobs are discarded by pop's
// caller noticing the false return.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
