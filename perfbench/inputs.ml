(* Inputs.  The query and write streams derive from the run's [--seed];
   the program sees only the generated instance and query text. *)

(* Independent sub-seeds of the run seed. *)
let sub seed k = (seed * 1_000_003) + (k * 7_919) + 1

(* The instance is the same for every run seed (the generator's default
   seed); the seed varies the operation streams only.  A generated
   forest splits its entries between roots like a Polya urn, so a
   seeded instance would change every query's result sizes from seed
   to seed and swamp the measurement. *)
let instance ~size =
  Dif_gen.generate ~params:{ Dif_gen.default_params with size } ()

(* Shuffle [a] in place (Fisher-Yates). *)
let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let digest_strings l = Digest.to_hex (Digest.string (String.concat "\n" l))

(* The canonical form outputs are compared in: the ordered list of
   result DNs, or its digest. *)
let dns entries = List.map (fun e -> Dn.to_string (Entry.dn e)) entries

let digest_rows entries = Digest.string (String.concat "\n" (dns entries))

(* Language level (0..3) of a query. *)
let level ast = Lang.level_to_int (Lang.level ast)

let parse instance text =
  Qparser.of_string ~schema:(Instance.schema instance) text

(* A sampled output, kept small until the check: the query, the
   instance version it ran on (versions share structure) and the digest
   of the rows returned. *)
type sample = { text : string; version : Instance.t; rows : Digest.t }

let sample text version entries =
  { text; version; rows = digest_rows entries }

(* How long the oracle may take per run: the oracle is quadratic on
   some hierarchical and reference queries, so a sample is checked in
   stream order until the budget is spent. *)
let check_budget_s = 6.

(* Compare sampled outputs with the oracle semantics on the same
   instance version, outside the timed window; a difference is a wrong
   output. *)
let check what samples =
  let t0 = Timing.now () in
  let n = ref 0 in
  List.iter
    (fun s ->
      if Timing.now () -. t0 < check_budget_s then begin
        incr n;
        let ast = parse s.version s.text in
        let expected =
          Semantics.sort_entries (Semantics.eval s.version ast)
        in
        if digest_rows expected <> s.rows then Report.mismatch s.text
      end)
    samples;
  Report.note "%s: %d of %d sampled outputs checked against Semantics in %.1f s"
    what !n (List.length samples) (Timing.now () -. t0)
