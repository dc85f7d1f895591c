package sim

import "testing"

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1 {
		t.Error("Second != 1s")
	}
	if Nanosecond.Nanoseconds() != 1 {
		t.Error("Nanosecond != 1ns")
	}
	if FromSeconds(2.5) != 2500*Millisecond {
		t.Errorf("FromSeconds(2.5) = %v", FromSeconds(2.5))
	}
}
