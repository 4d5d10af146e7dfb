// Fixture for the lockheld analyzer over a mutex reached through a local
// alias (sh := &s.shards[i]; run under internal/service). It tests the
// analyzer, not the scheduler, which holds one lock and no shards: the
// patterns pin down what must be flagged through the alias (a blocking
// journal append or wakeup send inside the critical section) and what
// must stay quiet (append-after-unlock, non-blocking wakeup hints, token
// bookkeeping, a comparison made between two critical sections).
package service

import "sync"

type shardRec struct{ id string }

type shardJournal struct{ ch chan shardRec }

// appendBlocking models Journal.Append: it parks the caller until the
// committer fsyncs the batch (a channel receive in the real pipeline).
func (j *shardJournal) appendBlocking(r shardRec) {
	j.ch <- r
}

type miniShard struct {
	mu     sync.Mutex
	tokens map[string]string
	queue  []shardRec
}

type miniSched struct {
	shards  []miniShard
	journal *shardJournal
	ready   chan struct{}
}

// appendUnderShardLock is the pre-group-commit shape: a journal append —
// which now blocks for a whole commit batch, not one fsync — inside the
// shard critical section. Every submit on this shard stalls behind the
// committer. Must be flagged, transitively through the helper.
func (s *miniSched) appendUnderShardLock(i int, r shardRec) {
	sh := &s.shards[i]
	sh.mu.Lock()
	sh.queue = append(sh.queue, r)
	s.journal.appendBlocking(r) // want "appendBlocking blocks"
	sh.mu.Unlock()
}

// wakeupUnderLock posts a worker wakeup with a blocking send while the
// shard is locked: a worker draining this shard would deadlock against a
// full channel. Must be flagged directly.
func (s *miniSched) wakeupUnderLock(i int, r shardRec) {
	sh := &s.shards[i]
	sh.mu.Lock()
	sh.queue = append(sh.queue, r)
	s.ready <- struct{}{} // want "channel send while holding sh.mu"
	sh.mu.Unlock()
}

// appendAfterUnlock is the sanctioned pipeline shape: the state
// transition commits under the shard lock, the journal append happens
// after release. Clean.
func (s *miniSched) appendAfterUnlock(i int, r shardRec) {
	sh := &s.shards[i]
	sh.mu.Lock()
	sh.queue = append(sh.queue, r)
	sh.mu.Unlock()
	s.journal.appendBlocking(r)
}

// reserveAndSignal is the claim path: pair-token bookkeeping under the
// shard lock with a non-blocking wakeup hint (select-with-default never
// parks). Clean.
func (s *miniSched) reserveAndSignal(i int, pair, id string) {
	sh := &s.shards[i]
	sh.mu.Lock()
	sh.tokens[pair] = id
	select {
	case s.ready <- struct{}{}:
	default:
	}
	sh.mu.Unlock()
}

// crossShardCompare is the two-phase claim: each shard's candidate is
// taken under its own lock, the cross-shard comparison holds none. Clean.
func (s *miniSched) crossShardCompare() (best shardRec) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if len(sh.queue) > 0 {
			c := sh.queue[0]
			sh.queue = sh.queue[1:]
			sh.mu.Unlock()
			if best.id == "" || c.id < best.id {
				best = c
			}
			continue
		}
		sh.mu.Unlock()
	}
	return best
}
