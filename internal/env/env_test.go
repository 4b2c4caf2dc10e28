package env

import (
	"testing"
)

func TestHandlerFunc(t *testing.T) {
	called := false
	var h Handler = HandlerFunc(func(from Addr, m Message) {
		if from != "a" {
			t.Errorf("from = %v", from)
		}
		called = true
	})
	h.HandleMessage("a", nil)
	if !called {
		t.Fatal("handler not invoked")
	}
}

func TestNilAddrIsZero(t *testing.T) {
	var a Addr
	if a != NilAddr {
		t.Fatal("zero Addr must equal NilAddr")
	}
}
