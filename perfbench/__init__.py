"""End-to-end benchmark of the LoPC reproduction (see README.md here)."""
