"""RC101 fixture package: a hot entry reaching an impure helper two
calls away, a @cold_path barrier subtree, and a suppressed sink."""
