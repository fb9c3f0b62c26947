(* Unit tests for the ISA layer: registers, instruction semantics, the
   builder's structural checks, and the linker's layout. *)

open Gecko_isa
module B = Builder

let test_reg_bounds () =
  Alcotest.check_raises "negative" (Invalid_argument "Reg.of_int: -1 out of range")
    (fun () -> ignore (Reg.of_int (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Reg.of_int: 16 out of range")
    (fun () -> ignore (Reg.of_int 16));
  Alcotest.(check int) "sp is r15" 15 (Reg.to_int Reg.sp)

(* Reg.Set is a 16-bit mask; every operation of its signature must agree
   with the ordered-set model, and [iter]/[fold]/[elements] must visit
   members in ascending register order. *)
module M = Set.Make (Int)

let reg_set_model =
  let regs = QCheck.(list_of_size Gen.(0 -- 20) (int_bound (Reg.count - 1))) in
  QCheck.Test.make ~count:500 ~name:"Reg.Set model"
    QCheck.(triple regs regs (int_bound (Reg.count - 1)))
    (fun (xs, ys, x) ->
      let set l = Reg.Set.of_list (List.map Reg.of_int l) in
      let ints s = List.map Reg.to_int (Reg.Set.elements s) in
      let a = set xs and b = set ys and r = Reg.of_int x in
      let ma = M.of_list xs and mb = M.of_list ys in
      let iterated s =
        let acc = ref [] in
        Reg.Set.iter (fun r -> acc := Reg.to_int r :: !acc) s;
        List.rev !acc
      in
      let folded s = List.rev (Reg.Set.fold (fun r l -> Reg.to_int r :: l) s []) in
      ints a = M.elements ma
      && iterated a = M.elements ma
      && folded a = M.elements ma
      && Reg.Set.is_empty a = M.is_empty ma
      && Reg.Set.is_empty Reg.Set.empty
      && Reg.Set.cardinal a = M.cardinal ma
      && Reg.Set.mem r a = M.mem x ma
      && ints (Reg.Set.singleton r) = [ x ]
      && ints (Reg.Set.add r a) = M.elements (M.add x ma)
      && ints (Reg.Set.remove r a) = M.elements (M.remove x ma)
      && ints (Reg.Set.union a b) = M.elements (M.union ma mb)
      && ints (Reg.Set.diff a b) = M.elements (M.diff ma mb)
      && Reg.Set.equal a b = M.equal ma mb)

let test_binop_semantics () =
  let c = Instr.eval_binop in
  Alcotest.(check int) "add" 7 (c Instr.Add 3 4);
  Alcotest.(check int) "sub negative" (-1) (c Instr.Sub 3 4);
  Alcotest.(check int) "mul" 12 (c Instr.Mul 3 4);
  Alcotest.(check int) "div by zero" 0 (c Instr.Div 5 0);
  Alcotest.(check int) "rem by zero" 0 (c Instr.Rem 5 0);
  Alcotest.(check int) "slt true" 1 (c Instr.Slt (-2) 1);
  Alcotest.(check int) "sne" 1 (c Instr.Sne 1 2);
  (* 32-bit two's-complement wraparound. *)
  Alcotest.(check int) "wrap add" (-2147483648) (c Instr.Add 2147483647 1);
  Alcotest.(check int) "shl wrap" (-2147483648) (c Instr.Shl 1 31);
  Alcotest.(check int) "shr logical" 0x7FFFFFFF (c Instr.Shr (-1) 1);
  Alcotest.(check int) "sra arithmetic" (-1) (c Instr.Sra (-1) 1)

let test_defs_uses () =
  let i = Instr.Bin (Instr.Add, Reg.r1, Reg.r2, Instr.Oreg Reg.r3) in
  Alcotest.(check bool) "defs r1" true (Reg.Set.mem Reg.r1 (Instr.defs i));
  Alcotest.(check bool) "uses r2" true (Reg.Set.mem Reg.r2 (Instr.uses i));
  Alcotest.(check bool) "uses r3" true (Reg.Set.mem Reg.r3 (Instr.uses i));
  let space = { Instr.space_name = "s"; space_id = 0; space_words = 4 } in
  let ld = Instr.Ld (Reg.r0, { Instr.space; disp = Instr.Dreg Reg.r5 }) in
  Alcotest.(check bool) "ld uses index reg" true
    (Reg.Set.mem Reg.r5 (Instr.uses ld))

let test_builder_rejects_unterminated () =
  Alcotest.check_raises "unterminated"
    (Invalid_argument "Builder.finish: block b unterminated") (fun () ->
      let b = B.program "bad" in
      B.func b "main";
      B.block b "b";
      B.nop b;
      ignore (B.finish b))

let test_builder_rejects_bad_target () =
  let build () =
    let b = B.program "bad2" in
    B.func b "main";
    B.block b "b";
    B.jmp b "nowhere";
    ignore (B.finish b)
  in
  (match build () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected validation failure")

let test_builder_rejects_oob_const () =
  let build () =
    let b = B.program "bad3" in
    let s = B.space b "s" ~words:2 () in
    B.func b "main";
    B.block b "b";
    B.ld b Reg.r0 (B.at s 5);
    B.halt b;
    ignore (B.finish b)
  in
  (match build () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected out-of-bounds rejection")

let test_fallthrough () =
  let b = B.program "ft" in
  B.func b "main";
  B.block b "a";
  B.nop b;
  B.block b "b";
  (* implicit jmp a -> b *)
  B.halt b;
  let p = B.finish b in
  let f = Cfg.find_func p "main" in
  let a = Cfg.find_block f "a" in
  (match a.Cfg.term with
  | Instr.Jmp "b" -> ()
  | _ -> Alcotest.fail "expected implicit fall-through jump")

let test_linker_layout () =
  let b = B.program "lay" in
  let s1 = B.space b "s1" ~words:10 () in
  let s2 = B.space b "s2" ~words:6 () in
  B.func b "main";
  B.block b "e";
  B.ld b Reg.r0 (B.at s1 0);
  B.st b (B.at s2 3) Reg.r0;
  B.halt b;
  let img = Link.link (B.finish b) in
  Alcotest.(check int) "s1 base" 0 img.Link.space_base.(s1.Instr.space_id);
  Alcotest.(check int) "s2 base" 10 img.Link.space_base.(s2.Instr.space_id);
  Alcotest.(check int) "data words" 16 img.Link.data_words;
  Alcotest.(check bool) "areas ordered" true
    (img.Link.stack_base < img.Link.jit_base
    && img.Link.jit_base < img.Link.gecko_base
    && img.Link.gecko_base < img.Link.sys_base
    && img.Link.sys_base + Link.Cells.sys_words = img.Link.nvm_words);
  (* Dynamic resolve. *)
  let regs = Array.make 16 0 in
  regs.(0) <- 4;
  Alcotest.(check int) "resolve dyn" 14
    (Link.resolve img { Instr.space = s2; disp = Instr.Dreg Reg.r0 } regs)

let test_disasm_nonempty () =
  let b = B.program "d" in
  B.func b "main";
  B.block b "e";
  B.li b Reg.r0 7;
  B.halt b;
  let img = Link.link (B.finish b) in
  let text = Link.disasm img in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "mentions li" true (contains text "li r0")


let test_asm_errors () =
  let bad = [
    ".program p\n.func main\ne:\n    bogus r1, r2\n    halt\n";
    ".program p\n.func main\ne:\n    ld r0, nowhere[0]\n    halt\n";
    ".func main\ne:\n    halt\n";  (* missing .program *)
    ".program p\n.func main\ne:\n    li r99, 1\n    halt\n";
  ] in
  List.iter
    (fun text ->
      match Asm.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" text)
    bad

let test_asm_parse_minimal () =
  let text =
    ".program t\n.space d 2 init 7 9\n.func main\ne:\n    ld r0, d[1]\n    halt\n"
  in
  match Asm.parse text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok p ->
      Alcotest.(check string) "name" "t" p.Cfg.pname;
      Alcotest.(check int) "spaces" 1 (List.length p.Cfg.spaces);
      Alcotest.(check string) "round trip stable" (Asm.to_string p)
        (match Asm.parse (Asm.to_string p) with
        | Ok p2 -> Asm.to_string p2
        | Error e -> e)

let () =
  Alcotest.run "isa"
    [
      ( "semantics",
        [
          Alcotest.test_case "reg bounds" `Quick test_reg_bounds;
          Alcotest.test_case "binop semantics" `Quick test_binop_semantics;
          Alcotest.test_case "defs/uses" `Quick test_defs_uses;
          QCheck_alcotest.to_alcotest reg_set_model;
        ] );
      ( "builder",
        [
          Alcotest.test_case "unterminated" `Quick test_builder_rejects_unterminated;
          Alcotest.test_case "bad target" `Quick test_builder_rejects_bad_target;
          Alcotest.test_case "oob constant" `Quick test_builder_rejects_oob_const;
          Alcotest.test_case "fall-through" `Quick test_fallthrough;
        ] );
      ( "linker",
        [
          Alcotest.test_case "layout" `Quick test_linker_layout;
          Alcotest.test_case "disasm" `Quick test_disasm_nonempty;
        ] );
      ( "asm",
        [
          Alcotest.test_case "parse errors" `Quick test_asm_errors;
          Alcotest.test_case "minimal program" `Quick test_asm_parse_minimal;
        ] );
    ]
