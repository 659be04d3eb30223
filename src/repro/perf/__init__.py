"""Performance model: cycle costs, contention, and report formatting."""
