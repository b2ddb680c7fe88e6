package experiments

import "context"

// StudyOf returns the upload study the drivers would read under ctx and p,
// as an opaque value whose identity tells two studies apart.
func StudyOf(ctx context.Context, p Params) (any, error) {
	return studyFor(ctx, p)
}
