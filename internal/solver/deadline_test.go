package solver

import (
	"testing"
	"time"
)

func TestNilDeadlineNeverExpires(t *testing.T) {
	var d *Deadline
	for i := 0; i < 10; i++ {
		if d.Expired() {
			t.Fatal("nil deadline expired")
		}
	}
	if _, timed := d.ExpireTime(); timed {
		t.Fatal("nil deadline timed")
	}
	d.Consume(time.Hour) // must not panic
}

func TestUnarmedDeadlineNeverExpires(t *testing.T) {
	var d Deadline
	for i := 0; i < 10; i++ {
		if d.Expired() {
			t.Fatal("unarmed deadline expired")
		}
	}
	d.Start(0, 0)
	if d.timed || d.counted || d.Expired() {
		t.Fatal("Start(0, 0) armed the deadline")
	}
}

func TestTimedDeadline(t *testing.T) {
	var d Deadline
	d.Start(time.Hour, 0)
	if !d.timed {
		t.Fatal("not armed after Start")
	}
	if d.Expired() {
		t.Fatal("expired immediately with an hour budget")
	}
	d.Consume(2 * time.Hour)
	if !d.Expired() {
		t.Fatal("not expired after consuming past the budget")
	}
	if !d.Expired() {
		t.Fatal("expiry not sticky")
	}
	d.Start(time.Hour, 0)
	if d.Expired() {
		t.Fatal("Start did not clear the sticky expiry")
	}
}

func TestCountedDeadline(t *testing.T) {
	var d Deadline
	const checks = 5
	d.Start(0, checks)
	for i := 0; i < checks; i++ {
		if d.Expired() {
			t.Fatalf("expired at checkpoint %d of %d", i, checks)
		}
	}
	if !d.Expired() {
		t.Fatalf("not expired after %d checkpoints", checks+1)
	}
}

func TestConsumeIgnoresCountedBudget(t *testing.T) {
	var d Deadline
	d.Start(0, 3)
	d.Consume(time.Hour)
	if d.Expired() {
		t.Fatal("Consume affected a purely counted deadline")
	}
}
