(* The benchmark's own answer checker.  It shares no code with the
   solver: it reads DIMACS and the CLI's answer lines with its own
   tokenizer, so a bug in the solver's parser or model check cannot
   hide a wrong answer. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Calls [f] on every signed integer token of [s] that does not sit on
   a line starting with one of [skip] ('c', 'p', ...). *)
let iter_ints ?(skip = "cp") s f =
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let ch = s.[!i] in
    if ch = ' ' || ch = '\t' || ch = '\n' || ch = '\r' then incr i
    else if String.contains skip ch then begin
      while !i < n && s.[!i] <> '\n' do incr i done
    end
    else begin
      let neg = ch = '-' in
      if neg then incr i;
      let v = ref 0 and digits = ref 0 in
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        v := (!v * 10) + Char.code s.[!i] - 48;
        incr digits;
        incr i
      done;
      if !digits = 0 then failwith (Printf.sprintf "bad token at byte %d" !i);
      f (if neg then - !v else !v)
    end
  done

(* [model.(v)] for variables 1..n; index 0 unused. *)
type model = bool array

let value (m : model) l =
  let v = abs l in
  v < Array.length m && m.(v) = (l > 0)

(* [None] when every clause of the DIMACS text has a true literal,
   else the 1-based index of the first falsified clause. *)
let falsified_clause (m : model) dimacs =
  let idx = ref 0 and sat = ref false and bad = ref None in
  iter_ints dimacs (fun l ->
      if l = 0 then begin
        incr idx;
        if (not !sat) && !bad = None then bad := Some !idx;
        sat := false
      end
      else if value m l then sat := true);
  !bad

let model_of_lits lits =
  let n = List.fold_left (fun acc l -> max acc (abs l)) 0 lits in
  let m = Array.make (n + 1) false in
  List.iter (fun l -> if l > 0 then m.(l) <- true) lits;
  m

type answer = Sat of model | Unsat | Unknown | No_answer

(* The CLI's "s ..." and "v ..." lines. *)
let parse_answer out =
  let status = ref None and lits = ref [] in
  List.iter
    (fun line ->
      if String.length line >= 2 then
        match line.[0] with
        | 's' -> status := Some (String.trim (String.sub line 1 (String.length line - 1)))
        | 'v' ->
          iter_ints ~skip:""
            (String.sub line 1 (String.length line - 1))
            (fun l -> if l <> 0 then lits := l :: !lits)
        | _ -> ())
    (String.split_on_char '\n' out);
  match !status with
  | Some "SATISFIABLE" -> Sat (model_of_lits !lits)
  | Some "UNSATISFIABLE" -> Unsat
  | Some "UNKNOWN" -> Unknown
  | _ -> No_answer

(* Verdict of one CLI answer against the expectation ("sat", "unsat"
   or "any") and the formula: [Ok verdict] or [Error reason]. *)
let cli_answer ~expected ~cnf_file ~out_file =
  match parse_answer (read_file out_file) with
  | No_answer -> Error "no answer line"
  | Unknown -> Error "UNKNOWN"
  | Unsat when expected = "sat" -> Error "UNSAT on a SAT instance"
  | Unsat -> Ok "unsat"
  | Sat _ when expected = "unsat" -> Error "SAT on an UNSAT instance"
  | Sat m -> (
    match falsified_clause m (read_file cnf_file) with
    | None -> Ok "sat"
    | Some i -> Error (Printf.sprintf "model falsifies clause %d" i))

(* ------------------------------------------------------------------ *)
(* Serve replies, replayed against the request script.  Each session's
   clauses are rebuilt from the requests it sent, so a SAT reply is
   checked against everything the session was told plus the solve's
   assumptions, and an UNSAT core must lie inside the assumptions. *)

module J = Berkmin_types.Json

let ints j =
  match Option.bind j J.to_list_opt with
  | Some l -> List.filter_map J.to_int_opt l
  | None -> []

type serve_report = {
  checked : int;
  failures : (string * string) list;  (** session, reason *)
  counts : (string * int * int) list;
      (** per session: conflicts and propagations from its [stats] *)
}

let serve_replies ~script ~replies =
  let clauses = Hashtbl.create 16 in
  let failures = ref [] and counts = ref [] and checked = ref 0 in
  List.iter2
    (fun (line, expect) reply ->
      incr checked;
      let req = J.of_string line and rep = J.of_string reply in
      let session =
        Option.value ~default:"" (Option.bind (J.member "session" req) J.to_string_opt)
      in
      let fail reason = failures := (session, reason) :: !failures in
      let field name = J.member name rep in
      let session_clauses () =
        Option.value ~default:[] (Hashtbl.find_opt clauses session)
      in
      (match Option.bind (J.member "op" req) J.to_string_opt with
      | Some "add_clauses" -> (
        match Option.bind (J.member "clauses" req) J.to_list_opt with
        | Some cs ->
          Hashtbl.replace clauses session
            (List.rev_append (List.map (fun c -> ints (Some c)) cs) (session_clauses ()))
        | None -> ())
      | Some "add_clause" ->
        Hashtbl.replace clauses session (ints (J.member "lits" req) :: session_clauses ())
      | Some _ | None -> ());
      if field "ok" <> Some (J.Bool true) then
        fail
          (Printf.sprintf "error reply: %s"
             (Option.value ~default:"?" (Option.bind (field "error") J.to_string_opt)))
      else
        let status = Option.bind (field "status") J.to_string_opt in
        match expect with
        | "ok" -> ()
        | "stats" ->
          let count name = Option.value ~default:(-1) (Option.bind (field name) J.to_int_opt) in
          counts := (session, count "conflicts", count "propagations") :: !counts
        | "sat" -> (
          match status with
          | Some "sat" ->
            let m = model_of_lits (ints (field "model")) in
            let assumps = ints (J.member "assumps" req) in
            if not (List.for_all (value m) assumps) then fail "model violates an assumption"
            else if
              not (List.for_all (fun c -> List.exists (value m) c) (session_clauses ()))
            then fail "model falsifies a session clause"
          | s -> fail ("expected sat, got " ^ Option.value s ~default:"?"))
        | "unsat" -> (
          match status with
          | Some "unsat" ->
            let assumps = ints (J.member "assumps" req) in
            if not (List.for_all (fun l -> List.mem l assumps) (ints (field "core"))) then
              fail "core is not a subset of the assumptions"
          | s -> fail ("expected unsat, got " ^ Option.value s ~default:"?"))
        | e -> fail ("unknown expectation " ^ e))
    script replies;
  { checked = !checked; failures = List.rev !failures; counts = List.rev !counts }
