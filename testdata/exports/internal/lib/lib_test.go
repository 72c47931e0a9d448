package lib

import (
	"testing"

	"exportsfixture/internal/testonly"
)

func TestLib(t *testing.T) {
	Hook()
	if Dead(2)+(Table{}).Used() != testonly.Helper() {
		t.Fatal("Dead(2) + Table.Used() != 3")
	}
}
