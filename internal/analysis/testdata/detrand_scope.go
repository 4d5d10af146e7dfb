// Fixture for detrand scoping: this file is checked as if it lived under
// cmd/wehey-lint, outside DetScope, so nothing is reported.
package fixture

import (
	"math/rand"
	"time"
)

func globalSourceOutsideScope() {
	_ = rand.Intn(10)
	_ = rand.New(rand.NewSource(time.Now().UnixNano()))
}
