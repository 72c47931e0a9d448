package lib

import (
	"testing"

	"exportsfixture/internal/testonly"
)

func TestLib(t *testing.T) {
	Hook()
	if Dead(2)+(Table{}).Used() != testonly.Helper(testonly.Opts{Level: 3}) {
		t.Fatal("Dead(2) + Table.Used() != 3")
	}
	if Sum(&Config{Knob: 1, Tuned: 2}) != 3 {
		t.Fatal("Knob + Tuned != 3")
	}
}
