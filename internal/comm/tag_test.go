package comm

import (
	"strings"
	"testing"
)

// mustPanic runs f and returns the recovered panic message, failing the test
// if f returns normally.
func mustPanic(t *testing.T, what string, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		f()
		t.Errorf("%s did not panic", what)
	}()
	return msg
}

// TestUserTagGuard pins the tag-space contract: the Send/Recv family rejects
// tags in the library-reserved space [UserTagLimit, ∞) — where the fused
// exchange rounds and the rma notification queues live — with a message that
// names the boundary, and rejects negative tags (reserved for collectives).
func TestUserTagGuard(t *testing.T) {
	w, err := NewWorld(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		for _, tag := range []int{UserTagLimit, UserTagLimit + 5, 1 << 40} {
			msg := mustPanic(t, "Send on a reserved tag", func() { Send(c, 1, tag, []int{1}) })
			if !strings.Contains(msg, "reserved") || !strings.Contains(msg, "UserTagLimit") {
				t.Errorf("tag %d: panic message %q does not explain the reserved space", tag, msg)
			}
		}
		mustPanic(t, "Send on a negative tag", func() { Send(c, 1, -1, []int{1}) })
		mustPanic(t, "SendOne on a reserved tag", func() { SendOne(c, 1, UserTagLimit, 1) })
		mustPanic(t, "Recv on a reserved tag", func() { Recv[int](c, 1, UserTagLimit) })

		// The inverse guard: the protocol-side primitive refuses user tags,
		// so library plumbing cannot accidentally collide with applications.
		msg := mustPanic(t, "SendrecvProtocol on a user tag", func() { SendrecvProtocol(c, 1, 7, []int{1}, 1) })
		if !strings.Contains(msg, "protocol") {
			t.Errorf("SendrecvProtocol panic %q does not name the protocol contract", msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The boundary itself: the largest user tag is accepted.
	w2, err := NewWorld(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = w2.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			Send(c, 1, UserTagLimit-1, []int{42})
		} else {
			if got := Recv[int](c, 0, UserTagLimit-1); got[0] != 42 {
				t.Errorf("boundary-tag payload %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
