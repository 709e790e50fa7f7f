package engine

// PrivateStages returns cfg with every machine keeping its stage records
// to itself: the reference the shared records are compared with.
func PrivateStages(cfg Config) Config {
	cfg.privateStages = true
	return cfg
}
