package store

// FrameBuilt reports whether the current revision holds a built analysis
// frame — for the tests (here and in store_test) that pin down which paths
// build one and which never do.
func FrameBuilt(s *Store) bool { return s.loadRev().frame.f.Load() != nil }
