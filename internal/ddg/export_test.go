package ddg

// SetCrossCheck turns the derived-bundle cross-check on or off for the
// builders created afterwards and returns the previous setting: each
// derived bundle then also folds its points through a MultiFolder, and
// FinishChecked fails unless both agree (derive.go).
func SetCrossCheck(on bool) bool { return crossCheck.Swap(on) }
