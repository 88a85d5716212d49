// Package wcexempt sits under internal/vclock, an excluded path: the
// same call that fires in wcfix must produce nothing here, so this file
// deliberately carries no want comments.
package wcexempt

import "time"

func stamp() time.Time { return time.Now() }
