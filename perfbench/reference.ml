(* The reference load: solver-free work whose speed tracks the host's.

   The shared host the benchmark runs on changes speed for minutes at a
   time, and a solver run slows down with it, CPU time as much as wall
   time.  The solver is bound by memory latency (watch lists, clause
   arena, trail), so the reference does the same kind of work: a
   dependent pointer chase through an 8 MB random cycle, plus short-lived
   allocation for the minor heap.  run.py times it in a fresh process
   around every pass and scales each pass to a host on which it takes
   [run.py]'s REF_NOMINAL_S.  It shares no code with the solver, so a
   change to the solver cannot move it. *)

let words = 1 lsl 20
let steps = 300_000

let run () =
  let a = Array.init words (fun i -> i) in
  (* Sattolo's shuffle: one cycle through every slot *)
  let s = ref 12345 in
  for i = words - 1 downto 1 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    let j = !s mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  let p = ref 0 and acc = ref 0 in
  for _ = 1 to steps do
    p := a.(!p);
    if !p land 7 = 0 then acc := !acc + List.length [ !p; !acc ]
  done;
  print_int (!acc land 1);
  print_newline ()
