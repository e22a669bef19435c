// Package use imports dep through its module import path.
package use

import "repro/internal/analyzers/testdata/src/loader/dep"

// V has dep's type.
var V dep.T
