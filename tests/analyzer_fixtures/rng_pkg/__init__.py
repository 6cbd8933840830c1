"""RC102 fixture package: seed arithmetic an engine entry reaches
through a looping call site (the cross-file 'seed + 1' shape),
plus global-RNG draws: reached, unreached, and waived."""
