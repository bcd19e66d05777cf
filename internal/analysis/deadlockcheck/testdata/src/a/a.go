// Package a is the deadlockcheck fixture: a two-function lock-order
// inversion, an interprocedural double-lock, and blocking operations
// under a lock.
package a

import (
	"sync"
	"time"
)

type S struct {
	muA sync.Mutex
	muB sync.Mutex
}

// lockB takes muB briefly. It is also called lock-free (Reset), so its
// inferred entry set is empty and the order edge anchors at LockAB's call.
func (s *S) lockB() {
	s.muB.Lock()
	s.muB.Unlock()
}

// LockAB establishes the order muA → muB through the helper.
func (s *S) LockAB() {
	s.muA.Lock()
	s.lockB() // want `potential lock-order inversion among \(a\.S\)\.muA, \(a\.S\)\.muB: holding \(a\.S\)\.muA, \(a\.S\)\.muB is acquired via \(\*a\.S\)\.LockAB → \(\*a\.S\)\.lockB \(a\.go:\d+\); holding \(a\.S\)\.muB, \(a\.S\)\.muA is acquired via \(\*a\.S\)\.LockBA \(a\.go:\d+\)`
	s.muA.Unlock()
}

// LockBA establishes muB → muA: the inversion's other half.
func (s *S) LockBA() {
	s.muB.Lock()
	s.muA.Lock()
	s.muA.Unlock()
	s.muB.Unlock()
}

// Reset gives lockB a lock-free call site.
func (s *S) Reset() {
	s.lockB()
}

// lockA acquires muA and leaves it held (a lock() helper: its exit delta
// composes into callers).
func (s *S) lockA() {
	s.muA.Lock()
}

// Double re-acquires muA through lockA while already holding it.
func (s *S) Double() {
	s.muA.Lock()
	s.lockA() // want `\(a\.S\)\.muA is acquired again via \(\*a\.S\)\.Double → \(\*a\.S\)\.lockA \(a\.go:\d+\) while already write-held; sync mutexes are not re-entrant`
	s.muA.Unlock()
	s.muA.Unlock()
}

// Send blocks on a channel send while holding muA.
func (s *S) Send(ch chan int) {
	s.muA.Lock()
	ch <- 1 // want `channel send while holding \(a\.S\)\.muA`
	s.muA.Unlock()
}

// waitOn is only called under muA, so the inferred entry set puts its
// receive under the lock.
func (s *S) waitOn(ch chan int) {
	<-ch // want `channel receive while holding \(a\.S\)\.muA`
}

// RecvUnderLock reaches waitOn's receive while holding muA; the call site
// gets the chained witness.
func (s *S) RecvUnderLock(ch chan int) {
	s.muA.Lock()
	s.waitOn(ch) // want `channel receive while holding \(a\.S\)\.muA via \(\*a\.S\)\.RecvUnderLock → \(\*a\.S\)\.waitOn \(a\.go:\d+\)`
	s.muA.Unlock()
}

// Nap sleeps holding the lock.
func (s *S) Nap() {
	s.muA.Lock()
	time.Sleep(time.Millisecond) // want `call to time\.Sleep while holding \(a\.S\)\.muA`
	s.muA.Unlock()
}

// WaitUnder waits on a WaitGroup while holding muA (through a defer'd
// unlock, still held at the Wait).
func (s *S) WaitUnder(wg *sync.WaitGroup) {
	s.muA.Lock()
	defer s.muA.Unlock()
	wg.Wait() // want `call to sync\.WaitGroup\.Wait while holding \(a\.S\)\.muA`
}

// Poll cannot block: the select has a default clause.
func (s *S) Poll(ch chan int) {
	s.muA.Lock()
	select {
	case v := <-ch:
		_ = v
	default:
	}
	s.muA.Unlock()
}

// Clean releases before the send: no finding.
func (s *S) Clean(ch chan int) {
	s.muA.Lock()
	s.muA.Unlock()
	ch <- 1
}

type R struct {
	mu sync.RWMutex
}

// rread re-acquires the read lock its callers hold: RLock is shareable,
// no double-lock.
func (r *R) rread() {
	r.mu.RLock()
	r.mu.RUnlock()
}

func (r *R) Readers() {
	r.mu.RLock()
	r.rread()
	r.mu.RUnlock()
}

// Handoff documents a deliberate send under the lock; the reason makes the
// suppression legal.
func (s *S) Handoff(ch chan int) {
	s.muA.Lock()
	ch <- 1 //deadlockcheck:ok bounded handoff, consumer never takes muA
	s.muA.Unlock()
}

func (s *S) badSuppression(ch chan int) {
	s.muA.Lock()
	ch <- 1 /*deadlockcheck:ok*/ // want `//deadlockcheck:ok needs a reason`
	s.muA.Unlock()
}

// store carries the in-frame misuse cases: double and upgrade locks,
// wrong-flavour and missing unlocks, channel operations under a held lock.
type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	vals map[string]int
}

func okDefer(s *store) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

func okPaired(s *store) {
	s.mu.Lock()
	s.vals["x"] = 1
	s.mu.Unlock()
}

func okConditional(s *store, c bool) {
	if c {
		s.mu.Lock()
	}
	// State is not definite after the join: nothing reported.
	if c {
		s.mu.Unlock()
	}
}

// okTwoInstances locks two stores: one lock per type, but not the same
// instance, so it is no double lock.
func okTwoInstances(a, b *store) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func doubleLock(s *store) {
	s.mu.Lock()
	s.mu.Lock() // want `second Lock of s\.mu \(already locked\)`
	s.mu.Unlock()
	s.mu.Unlock()
}

func upgrade(s *store) {
	s.rw.RLock()
	s.rw.Lock() // want `Lock of s\.rw while RLock-ed \(upgrade deadlock\)`
	s.rw.Unlock()
}

func downgrade(s *store) {
	s.rw.Lock()
	s.rw.RLock() // want `RLock of s\.rw while Lock-ed \(self-deadlock\)`
	s.rw.RUnlock()
}

func okSharedRead(s *store) {
	s.rw.RLock()
	s.rw.RLock()
	s.rw.RUnlock()
	s.rw.RUnlock()
}

func wrongFlavour(s *store) {
	s.rw.RLock()
	s.rw.Unlock() // want `Unlock of RLock-ed s\.rw \(want RUnlock\)`
	s.rw.Lock()
	s.rw.RUnlock() // want `RUnlock of Lock-ed s\.rw \(want Unlock\)`
}

func earlyReturn(s *store, bad bool) int {
	s.mu.Lock()
	if bad {
		return 0 // want `return while s\.mu is locked \(no deferred unlock\)`
	}
	v := s.vals["x"]
	s.mu.Unlock()
	return v
}

func chanUnderLock(s *store, ch chan int) {
	s.mu.Lock()
	ch <- 1   // want `channel send while holding \(a\.store\)\.mu`
	v := <-ch // want `channel receive while holding \(a\.store\)\.mu`
	s.vals["x"] = v
	s.mu.Unlock()
}

func chanAfterUnlock(s *store, ch chan int) {
	s.mu.Lock()
	s.vals["x"] = 1
	s.mu.Unlock()
	ch <- 1 // ok: lock released
}

func suppressedReturn(s *store) {
	s.mu.Lock()
	//deadlockcheck:ok the caller unlocks through release()
	return
}
