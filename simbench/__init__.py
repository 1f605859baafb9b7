"""Host-cost benchmark of the MicroFaaS simulator (see README.md)."""
