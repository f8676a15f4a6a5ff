// Fixture for the chanlife pass: no send after close, no double close,
// no select loop that spins on a non-blocking default.
package chanlife

import "time"

type mux struct {
	out chan int
	sig chan struct{}
}

// Bad: double close panics.
func closeTwice(ch chan struct{}) {
	close(ch)
	close(ch) // want "second close of ch"
}

// Bad: send on a closed channel panics.
func sendAfterClose(ch chan int) {
	close(ch)
	ch <- 1 // want "send on ch after it was closed"
}

// Bad: the closing branch falls through to the send.
func sendAfterBranchClose(ch chan int, done bool) {
	if done {
		close(ch)
	}
	ch <- 1 // want "send on ch after it was closed"
}

// Good: the closing branch returns; the send never follows the close.
func sendAfterReturningClose(ch chan int, done bool) {
	if done {
		close(ch)
		return
	}
	ch <- 1
}

// Good: sibling arms are exclusive — the send never follows the close,
// whether the arms are an if/else, switch cases or select clauses.
func closeOrSend(ch chan int, c bool) {
	if c {
		close(ch)
	} else {
		ch <- 1
	}
}

func closeOrSendCase(ch chan int, n int) {
	switch n {
	case 0:
		close(ch)
	case 1:
		ch <- 1
	}
}

func closeOrSendClause(ch chan int, a, b chan bool) {
	select {
	case <-a:
		close(ch)
	case <-b:
		ch <- 1
	}
}

// Good: close-and-replace broadcast — the send goes to the fresh
// channel, not the closed one.
func (m *mux) broadcast() {
	close(m.sig)
	m.sig = make(chan struct{})
	m.sig <- struct{}{}
}

// Bad: the default case neither blocks nor exits; the loop burns a
// core instead of parking on its channels.
func (m *mux) spin() {
	n := 0
	for {
		select { // want "spins instead of parking"
		case v := <-m.out:
			n += v
		default:
			n++
		}
	}
}

// Good: the default paces the loop.
func (m *mux) poll() {
	for {
		select {
		case v := <-m.out:
			_ = v
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// Good: no default; the select parks.
func (m *mux) wait() {
	for {
		select {
		case <-m.sig:
			return
		case v := <-m.out:
			_ = v
		}
	}
}
