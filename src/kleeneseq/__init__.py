"""kleeneseq: sequent prover and regular-language decision procedure for
the substructural logics kl and kl+."""
