//go:build race

package match

// poison makes GiveRows overwrite a handed-back array, so that under the
// race detector a read after hand-back shows in the answer.
const poison = true
