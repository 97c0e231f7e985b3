"""Built-in stateless services: the paper's service catalog, one module per
service; :mod:`repro.services` exports them."""
